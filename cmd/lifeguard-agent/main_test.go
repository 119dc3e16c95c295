package main

import (
	"strings"
	"testing"
	"time"
)

// TestParseFlags table-tests the agent's flag surface: defaults, the
// e2e tuning flags, and every rejection path.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string                     // substring of the expected error; empty = success
		check   func(*agentOptions) string // returns "" when the parsed options look right
	}{
		{
			name: "defaults",
			args: nil,
			check: func(o *agentOptions) string {
				switch {
				case o.bind != "127.0.0.1:7946":
					return "bind default"
				case o.swim:
					return "protocol variant flag defaults on"
				case o.alpha != 5 || o.beta != 6:
					return "alpha/beta defaults"
				case o.probeInterval != 0 || o.probeTimeout != 0:
					return "probe overrides should default to 0 (= protocol default)"
				case o.leaveTimeout != 5*time.Second:
					return "leave-timeout default"
				}
				return ""
			},
		},
		// The flag went with the coordinate payload; an old command line
		// fails loudly instead of starting a member it did not ask for.
		{name: "disable coords", args: []string{"-disable-coords", "-name", "old-wire"}, wantErr: "flag provided but not defined: -disable-coords"},
		{
			name: "probe tuning",
			args: []string{"-probe-interval", "200ms", "-probe-timeout", "100ms"},
			check: func(o *agentOptions) string {
				if o.probeInterval != 200*time.Millisecond || o.probeTimeout != 100*time.Millisecond {
					return "probe interval/timeout not parsed"
				}
				return ""
			},
		},
		{
			name: "swim with http",
			args: []string{"-swim", "-http", "127.0.0.1:0"},
			check: func(o *agentOptions) string {
				if !o.swim || o.httpAddr != "127.0.0.1:0" {
					return "swim/http not parsed"
				}
				return ""
			},
		},
		{name: "unknown flag", args: []string{"-no-such-flag"}, wantErr: "flag provided but not defined"},
		{name: "positional junk", args: []string{"join", "127.0.0.1:1"}, wantErr: "unexpected positional arguments"},
		{name: "negative probe interval", args: []string{"-probe-interval", "-1s"}, wantErr: "-probe-interval must not be negative"},
		{name: "negative probe timeout", args: []string{"-probe-timeout", "-5ms"}, wantErr: "-probe-timeout must not be negative"},
		{name: "malformed duration", args: []string{"-probe-interval", "fast"}, wantErr: "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(tc.args)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseFlags(%q) succeeded, want error containing %q", tc.args, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseFlags(%q) error = %q, want substring %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseFlags(%q): %v", tc.args, err)
			}
			if msg := tc.check(o); msg != "" {
				t.Errorf("parseFlags(%q): %s (got %+v)", tc.args, msg, *o)
			}
		})
	}
}

// TestRunErrorPaths drives run() end to end through the failures that
// must surface as a nonzero process exit: unparsable flags, an
// unbindable address, and probe settings the core config rejects. Each
// must return promptly with an error — never start the event loop.
func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "bad flag", args: []string{"-no-such-flag"}, wantErr: "flag provided but not defined"},
		{name: "unresolvable bind", args: []string{"-bind", "999.999.999.999:1"}, wantErr: "resolve"},
		{name: "malformed bind", args: []string{"-bind", "not-an-address"}, wantErr: ""},
		{
			name:    "timeout exceeds interval",
			args:    []string{"-bind", "127.0.0.1:0", "-probe-interval", "100ms", "-probe-timeout", "300ms"},
			wantErr: "probe timeout",
		},
		{name: "NaN alpha", args: []string{"-bind", "127.0.0.1:0", "-alpha", "NaN"}, wantErr: "SuspicionAlpha"},
		{name: "infinite beta", args: []string{"-bind", "127.0.0.1:0", "-beta", "Inf"}, wantErr: "SuspicionBeta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- run(tc.args) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("run(%q) succeeded, want error", tc.args)
				}
				if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("run(%q) error = %q, want substring %q", tc.args, err, tc.wantErr)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("run(%q) did not return", tc.args)
			}
		})
	}
}
