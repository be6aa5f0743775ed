package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseOnly: -only names are trimmed and lowercased, and a name that
// is neither a paper key nor a sweep is refused with the list of valid ones.
func TestParseOnly(t *testing.T) {
	got, err := parseOnly(" QoSSweep ,fig4")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"qossweep": true, "fig4": true}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseOnly = %v, want %v", got, want)
	}

	_, err = parseOnly("qosweep")
	if err == nil {
		t.Fatal("parseOnly accepted the misspelt qosweep")
	}
	for _, k := range validKeys() {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("error %q does not list %s", err, k)
		}
	}
}
