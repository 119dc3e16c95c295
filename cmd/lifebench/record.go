package main

import (
	"encoding/json"
	"io"

	"lifeguard/internal/experiment"
)

// writeRecords emits the collected records as one JSON array, so bench
// trajectories can be tracked across commits without parsing the human
// tables. The scenarios build their own records; lifebench only
// serializes them.
func writeRecords(w io.Writer, records []experiment.Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
