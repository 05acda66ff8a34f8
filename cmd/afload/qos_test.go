package main

import (
	"strings"
	"testing"
)

// TestQoSFlagValidation pins the -qos/-fairness flag rules: dependent
// flags without their mode, either mode over HTTP, combinations a mode
// would silently ignore, and the valid spellings.
func TestQoSFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" means the combination must parse
	}{
		{"qos alone", []string{"-qos"}, ""},
		{"qos with tenants", []string{"-qos", "-tenants", "a:w=2;b:r=100"}, ""},
		{"qos with shape", []string{"-qos", "-tenants", "a:shape=bursty"}, ""},
		{"qos with batch", []string{"-qos", "-batch"}, ""},
		{"fairness alone", []string{"-fairness"}, ""},
		{"fairness with seed", []string{"-fairness", "-seed", "11"}, ""},

		{"tenants without qos", []string{"-tenants", "a:w=2"}, "need -qos"},
		{"shape without qos", []string{"-tenants", "a:shape=bursty"}, "need -qos"},
		{"tenants with fairness", []string{"-fairness", "-tenants", "a:w=2"}, "need -qos"},
		{"qos and fairness", []string{"-qos", "-fairness"}, "mutually exclusive"},
		{"qos over http", []string{"-qos", "-addr", "http://x"}, "in-process"},
		{"fairness over http", []string{"-fairness", "-addr", "http://x"}, "in-process"},
		{"qos with chaos", []string{"-qos", "-chaos"}, "drop"},
		{"qos with chaos-disk", []string{"-qos", "-chaos-disk"}, "drop"},
		{"qos with batch-sweep", []string{"-qos", "-batch-sweep"}, "drop"},
		{"qos with ppi", []string{"-qos", "-ppi", "4"}, "drop"},
		{"qos with warm", []string{"-qos", "-warm", "-cache-dir", "/tmp/x"}, "drop"},
		{"qos with compare-cache", []string{"-qos", "-compare-cache"}, "drop"},
		{"qos with cache-dir", []string{"-qos", "-cache-dir", "/tmp/x"}, "drop"},
		{"fairness with mix", []string{"-fairness", "-mix", "promo:1"}, "fixes its own"},
		{"fairness with n", []string{"-fairness", "-n", "50"}, "fixes its own"},
		{"fairness with batch", []string{"-fairness", "-batch"}, "fixes its own"},
		{"tenants with global n", []string{"-qos", "-tenants", "a:w=2", "-n", "50"}, "drop it"},
		{"bad shape", []string{"-qos", "-tenants", "a:shape=sawtooth"}, "unknown arrival shape"},
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
