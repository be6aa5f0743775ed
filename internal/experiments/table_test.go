package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestSweepTablesMatchBenchPins runs every vizbench sweep at the benchmark's
// parameters (scale 0.1, one worker) and compares the sha256 of its CSV with
// the one bench/golden.json pins, so a changed cell format fails here on any
// amd64 host, not only on the CPU the pins were recorded on. It also checks
// that the text table renders the title, the header and one line per row.
// Elsewhere it skips: math.Exp's FMA path decides the last bit of a cell.
func TestSweepTablesMatchBenchPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the sweep CSVs are pinned on amd64, not %s", runtime.GOARCH)
	}
	raw, err := os.ReadFile("../../bench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var gold struct {
		SweepCSV map[string]string `json:"sweep_csv_sha256"`
	}
	if err := json.Unmarshal(raw, &gold); err != nil {
		t.Fatal(err)
	}
	if len(gold.SweepCSV) != len(Sweeps) {
		t.Errorf("bench/golden.json pins %d sweeps, Sweeps lists %d", len(gold.SweepCSV), len(Sweeps))
	}
	for _, s := range Sweeps {
		t.Run(s.Name, func(t *testing.T) {
			tab := s.Run(0.1, 1)
			var csv bytes.Buffer
			if err := tab.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%x", sha256.Sum256(csv.Bytes())), gold.SweepCSV[s.Name]; got != want {
				t.Errorf("CSV sha256 %s, pinned %s:\n%s", got, want, csv.Bytes())
			}

			var text bytes.Buffer
			if err := tab.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(text.String(), "\n")
			// Title, header, rows, the blank line and the empty tail after it.
			if got, want := len(lines), len(tab.Rows)+4; got != want {
				t.Fatalf("text table has %d lines, want %d:\n%s", got, want, text.String())
			}
			if lines[0] != tab.Title || lines[len(lines)-2] != "" {
				t.Errorf("text table not framed by its title and a blank line:\n%s", text.String())
			}
			for i, cells := range append([][]string{tab.Header}, tab.Rows...) {
				if got, want := strings.Fields(lines[1+i]), strings.Fields(strings.Join(cells, " ")); !reflect.DeepEqual(got, want) {
					t.Errorf("text line %d = %q, want the cells %q", 1+i, lines[1+i], cells)
				}
			}
		})
	}
}

// column returns the named column of a table's rows.
func column(t *testing.T, tab Table, name string) []string {
	t.Helper()
	for c, h := range tab.Header {
		if h == name {
			var out []string
			for _, r := range tab.Rows {
				out = append(out, r[c])
			}
			return out
		}
	}
	t.Fatalf("table has no column %q: %q", name, tab.Header)
	return nil
}
