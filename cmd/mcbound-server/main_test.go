package main

import (
	"testing"

	"mcbound/internal/cluster"
)

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
			ccfg := replClientConfig(options{follow: tc.follow}, tc.members)
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
