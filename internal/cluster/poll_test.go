package cluster

import "testing"

func TestParseMemberList(t *testing.T) {
	members, err := ParseMemberList("n1=http://a:1/, n2=http://b:2 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("got %d members", len(members))
	}
	if members[0].ID != "n1" || members[0].URL != "http://a:1" {
		t.Fatalf("member[0] = %+v, want trimmed n1=http://a:1", members[0])
	}
	if members[1].URL != "http://b:2" {
		t.Fatalf("member[1] = %+v", members[1])
	}
	for _, bad := range []string{"", "n1", "n1=", "=http://a:1", "n1=http://a:1,n1=http://b:2"} {
		if _, err := ParseMemberList(bad); err == nil {
			t.Errorf("ParseMemberList(%q) accepted", bad)
		}
	}
}

func TestContainsURL(t *testing.T) {
	members, err := ParseMemberList("n1=http://a:1,n2=http://b:2")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New("n1", members)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ContainsURL("http://a:1") || !m.ContainsURL("http://b:2/") {
		t.Fatal("configured member URL not recognized")
	}
	for _, u := range []string{"http://evil:1", "http://a:2", "", "https://a:1"} {
		if m.ContainsURL(u) {
			t.Errorf("non-member %q admitted", u)
		}
	}
}
