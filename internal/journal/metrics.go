package journal

import "snoopmva/internal/obs"

// Metrics of the durable append path (catalog in DESIGN.md §12). Their
// ratio is the mean group size: records made durable per append fsync.
var (
	journalSyncs   = obs.Default.Counter("snoopmva_journal_syncs_total", "Append fsyncs that made at least one journal record durable.")
	journalRecords = obs.Default.Counter("snoopmva_journal_records_total", "Journal records made durable by append fsyncs.")
)
