package main

import (
	"strings"
	"testing"

	"repro/internal/pegasus"
)

func TestParseSelection(t *testing.T) {
	for _, c := range []struct {
		name string
		want pegasus.SiteSelection
		ok   bool
	}{
		{"random", pegasus.SelectRandom, true},
		{"roundrobin", pegasus.SelectRoundRobin, true},
		{"locality", pegasus.SelectLocality, true},
		{"leastloaded", 0, false},
	} {
		got, err := parseSelection(c.name)
		if !c.ok {
			if err == nil || !strings.Contains(err.Error(), "random, roundrobin or locality") {
				t.Errorf("parseSelection(%q) = %v, %v; want an error naming the accepted policies", c.name, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("parseSelection(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
}
