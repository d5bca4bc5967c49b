package node

import (
	"strings"
	"testing"

	"mcbound/internal/cluster"
)

// Every cross-flag rule, each checked from an otherwise valid shipped
// configuration. want is a fragment of the error; "" means accepted.
func TestConfigValidate(t *testing.T) {
	const peers = "n1=http://h1:8080,n2=http://h2:8080,n3=http://h3:8080"
	for _, tc := range []struct {
		name string
		edit func(c *Config)
		want string
	}{
		{"generate", func(c *Config) { c.Generate = true }, ""},
		{"trace", func(c *Config) { c.Trace = "jobs.jsonl" }, ""},
		{"follow", func(c *Config) { c.Follow = "http://h1:8080" }, ""},
		{"data-dir-alone", func(c *Config) { c.DataDir = "/d" }, ""},
		{"no-source", func(c *Config) {}, "either -trace, -generate, -data-dir or -follow is required"},
		{"follow-with-promote", func(c *Config) {
			c.Follow, c.DataDir, c.PromoteOnStart = "http://h1:8080", "/d", true
		}, "mutually exclusive"},
		{"promote-without-data-dir", func(c *Config) { c.Generate, c.PromoteOnStart = true, true }, "-promote-on-start requires -data-dir"},
		{"promote-with-data-dir", func(c *Config) { c.DataDir, c.PromoteOnStart = "/d", true }, ""},
		{"follow-with-trace", func(c *Config) { c.Follow, c.Trace = "http://h1:8080", "jobs.jsonl" }, "-follow excludes -trace and -generate"},
		{"follow-with-generate", func(c *Config) { c.Follow, c.Generate = "http://h1:8080", true }, "-follow excludes -trace and -generate"},
		{"node-id-without-peers", func(c *Config) { c.DataDir, c.NodeID = "/d", "n1" }, "-node-id and -peers go together"},
		{"peers-without-node-id", func(c *Config) { c.DataDir, c.Peers = "/d", peers }, "-node-id and -peers go together"},
		{"peers-without-role", func(c *Config) { c.Generate, c.NodeID, c.Peers = true, "n1", peers }, "-peers requires a replication role"},
		{"peers-leader", func(c *Config) { c.DataDir, c.NodeID, c.Peers = "/d", "n1", peers }, ""},
		{"peers-follower", func(c *Config) { c.Follow, c.NodeID, c.Peers = "http://h1:8080", "n2", peers }, ""},
		{"peers-missing-self", func(c *Config) { c.DataDir, c.NodeID, c.Peers = "/d", "n9", peers }, "bad -peers"},
		{"bad-fsync", func(c *Config) { c.Generate, c.Fsync = true, "sometimes" }, "bad -fsync"},
		{"bad-index", func(c *Config) { c.Generate, c.Index = true, "maybe" }, "bad -index/-nprobe"},
		{"bad-nprobe", func(c *Config) { c.Generate, c.NProbe = true, -1 }, "bad -index/-nprobe"},
		{"bad-train-at", func(c *Config) { c.Generate, c.TrainAt = true, "yesterday" }, "bad -train-at"},
		{"train-at", func(c *Config) { c.Generate, c.TrainAt = true, "2024-02-28T00:00:00Z" }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := Defaults()
			tc.edit(&c)
			err := c.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// The follower's 421 redirect allowlist: the configured membership when
// -peers is set, otherwise only the -follow base itself (trailing slash
// ignored), never "anything".
func TestReplClientConfigAllowlist(t *testing.T) {
	peers, err := cluster.New("n2", []cluster.Member{
		{ID: "n1", URL: "http://leader:8080"},
		{ID: "n2", URL: "http://n2:8080"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		follow  string
		members cluster.Membership
		allow   []string
		deny    []string
	}{
		{
			name:    "with-peers",
			follow:  "http://leader:8080",
			members: peers,
			allow:   []string{"http://leader:8080", "http://n2:8080"},
			deny:    []string{"http://evil", "http://n3:8080", ""},
		},
		{
			name:   "without-peers",
			follow: "http://leader:8080",
			allow:  []string{"http://leader:8080", "http://leader:8080/"},
			deny:   []string{"http://evil", "http://n2:8080", "https://leader:8080", ""},
		},
		{
			name:   "follow-trailing-slash",
			follow: "http://leader:8080/",
			allow:  []string{"http://leader:8080", "http://leader:8080/"},
			deny:   []string{"http://evil", "http://leader:8081"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ccfg := replClientConfig(Config{Follow: tc.follow}, tc.members)
			if ccfg.BaseURL != tc.follow {
				t.Errorf("BaseURL = %q, want %q", ccfg.BaseURL, tc.follow)
			}
			if ccfg.Allowed == nil {
				t.Fatal("nil allowlist admits any redirect")
			}
			for _, u := range tc.allow {
				if !ccfg.Allowed(u) {
					t.Errorf("%q denied, want allowed", u)
				}
			}
			for _, u := range tc.deny {
				if ccfg.Allowed(u) {
					t.Errorf("%q allowed, want denied", u)
				}
			}
		})
	}
}
