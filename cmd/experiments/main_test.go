package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseFigs(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []string
		wantErr string
	}{
		{in: "all", want: []string{"all"}},
		{in: "6", want: []string{"6"}},
		{in: "1,3a,3b", want: []string{"1", "3a", "3b"}},
		{in: "overhead,darksilicon,profiles,reliability", want: []string{"overhead", "darksilicon", "profiles", "reliability"}},
		{in: " 6 , 7,8 ", want: []string{"6", "7", "8"}},
		{in: "6,6", want: []string{"6"}},
		{in: "9", wantErr: `"9"`},
		{in: "6,reliabilty", wantErr: `"reliabilty"`},
		{in: "", wantErr: `""`},
	} {
		got, err := parseFigs(tc.in)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("parseFigs(%q) = %v, want error", tc.in, got)
				continue
			}
			for _, sub := range []string{tc.wantErr, strings.Join(figNames, ", ")} {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("parseFigs(%q) error %q does not mention %s", tc.in, err, sub)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFigs(%q): %v", tc.in, err)
			continue
		}
		want := map[string]bool{}
		for _, f := range tc.want {
			want[f] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parseFigs(%q) = %v, want %v", tc.in, got, want)
		}
	}
}
