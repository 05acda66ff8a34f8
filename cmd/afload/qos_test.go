package main

import (
	"strings"
	"testing"
)

// TestQoSFlagValidation pins the -qos flag rules: dependent flags without
// the mode, the mode over HTTP, combinations it would silently ignore, and
// the valid spellings. The gate modes that used to sit beside -qos
// (-fairness, -chaos, -chaos-disk, -batch-sweep) are TestGates rows in
// internal/scenario now, so those spellings must stay unknown flags.
func TestQoSFlagValidation(t *testing.T) {
	const retired = "flag provided but not defined"
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" means the combination must parse
	}{
		{"qos alone", []string{"-qos"}, ""},
		{"qos with tenants", []string{"-qos", "-tenants", "a:w=2;b:r=100"}, ""},
		{"qos with shape", []string{"-qos", "-tenants", "a:shape=bursty"}, ""},
		{"qos with batch", []string{"-qos", "-batch"}, ""},

		{"tenants without qos", []string{"-tenants", "a:w=2"}, "need -qos"},
		{"shape without qos", []string{"-tenants", "a:shape=bursty"}, "need -qos"},
		{"qos over http", []string{"-qos", "-addr", "http://x"}, "in-process"},
		{"qos with ppi", []string{"-qos", "-ppi", "4"}, "drop"},
		{"qos with warm", []string{"-qos", "-warm", "-cache-dir", "/tmp/x"}, "drop"},
		{"qos with compare-cache", []string{"-qos", "-compare-cache"}, "drop"},
		{"qos with cache-dir", []string{"-qos", "-cache-dir", "/tmp/x"}, "drop"},
		{"tenants with global n", []string{"-qos", "-tenants", "a:w=2", "-n", "50"}, "drop it"},
		{"bad shape", []string{"-qos", "-tenants", "a:shape=sawtooth"}, "unknown arrival shape"},

		{"fairness alone", []string{"-fairness"}, retired},
		{"fairness with seed", []string{"-fairness", "-seed", "11"}, retired},
		{"fairness with mix", []string{"-fairness", "-mix", "promo:1"}, retired},
		{"fairness with n", []string{"-fairness", "-n", "50"}, retired},
		{"fairness with batch", []string{"-fairness", "-batch"}, retired},
		{"fairness over http", []string{"-fairness", "-addr", "http://x"}, retired},
		{"tenants with fairness", []string{"-fairness", "-tenants", "a:w=2"}, retired},
		{"qos and fairness", []string{"-qos", "-fairness"}, retired},
		{"qos with chaos", []string{"-qos", "-chaos"}, retired},
		{"qos with chaos-disk", []string{"-qos", "-chaos-disk"}, retired},
		{"qos with batch-sweep", []string{"-qos", "-batch-sweep"}, retired},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("args %v rejected: %v", tc.args, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("args %v accepted, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.wantErr)
			}
		})
	}
}
