package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []Span
		want  []int64
	}{
		{
			name:  "no children: self time is the duration",
			spans: []Span{{ID: 0, Parent: NoParent, Start: 10, End: 110}},
			want:  []int64{100},
		},
		{
			name: "nested: each level loses what its children cover",
			spans: []Span{
				{ID: 0, Parent: NoParent, Start: 0, End: 100},
				{ID: 1, Parent: 0, Start: 10, End: 60},
				{ID: 2, Parent: 1, Start: 20, End: 30},
			},
			want: []int64{50, 40, 10},
		},
		{
			name: "overlapping siblings are counted once",
			spans: []Span{
				{ID: 0, Parent: NoParent, Start: 0, End: 100},
				{ID: 1, Parent: 0, Start: 10, End: 50},
				{ID: 2, Parent: 0, Start: 30, End: 70},
				{ID: 3, Parent: 0, Start: 80, End: 90},
			},
			want: []int64{30, 40, 40, 10},
		},
		{
			name: "a sibling inside another adds nothing",
			spans: []Span{
				{ID: 0, Parent: NoParent, Start: 0, End: 100},
				{ID: 1, Parent: 0, Start: 10, End: 90},
				{ID: 2, Parent: 0, Start: 20, End: 30},
			},
			want: []int64{20, 80, 10},
		},
		{
			name: "a child is clipped to its parent",
			spans: []Span{
				{ID: 0, Parent: NoParent, Start: 50, End: 100},
				{ID: 1, Parent: 0, Start: 40, End: 70},
				{ID: 2, Parent: 0, Start: 90, End: 130},
			},
			want: []int64{20, 30, 40},
		},
	}
	for _, c := range cases {
		got := SelfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: self time of span %d = %d, want %d", c.name, i, got[i], c.want[i])
			}
		}
	}
}

func TestUnattributed(t *testing.T) {
	cases := []struct {
		total int64
		parts []int64
		want  float64
	}{
		{1000, []int64{300, 500}, 0.2},
		{1000, []int64{1000}, 0},
		{1000, []int64{700, 500}, -0.2},
		{1000, nil, 1},
		{0, []int64{5}, 0},
	}
	for _, c := range cases {
		if got := Unattributed(c.total, c.parts...); got != c.want {
			t.Errorf("Unattributed(%d, %v) = %v, want %v", c.total, c.parts, got, c.want)
		}
	}
}

func TestRecorderLinksAndDumps(t *testing.T) {
	r := NewRecorder()
	root := r.Start("request", NoParent, 4)
	child := r.Start("stage", root, 4)
	r.End(child)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Request != 4 {
		t.Fatalf("spans not linked: %+v", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End || spans[0].Duration() < spans[1].Duration() {
		t.Fatalf("child not inside its parent: %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 2 || back[1] != spans[1] {
		t.Fatalf("dump does not round-trip: %v %+v", err, back)
	}
}
