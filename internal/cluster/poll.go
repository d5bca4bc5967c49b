package cluster

import (
	"fmt"
	"strings"
)

// ParseMemberList parses an "id=url,id=url,..." spec into a member
// slice without requiring a self entry — the front door's view of the
// fleet, where the router itself is not a member.
func ParseMemberList(spec string) ([]Member, error) {
	var members []Member
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: bad peer %q, want id=url", part)
		}
		m := Member{ID: strings.TrimSpace(id), URL: strings.TrimRight(strings.TrimSpace(url), "/")}
		if m.ID == "" || m.URL == "" {
			return nil, fmt.Errorf("cluster: bad peer %q, want id=url", part)
		}
		if seen[m.ID] {
			return nil, fmt.Errorf("cluster: duplicate member id %q", m.ID)
		}
		seen[m.ID] = true
		members = append(members, m)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return members, nil
}

// ContainsURL reports whether u names a configured member's base URL
// (trailing slashes ignored). It is the membership allowlist behind
// redirect chasing: a Location header pointing anywhere else must be
// refused, not followed.
func (m Membership) ContainsURL(u string) bool {
	u = strings.TrimRight(u, "/")
	if u == "" {
		return false
	}
	for _, mem := range m.all {
		if mem.URL == u {
			return true
		}
	}
	return false
}
