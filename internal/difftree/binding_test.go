package difftree

import "testing"

// TestBindingKeyStringGolden pins the canonical key of every BindValue
// shape byte for byte: the key names a binding state in the session's
// resolution memo and its hash, so any change to its rendering would
// silently split or merge cached states.
func TestBindingKeyStringGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Binding
		want string
	}{
		{"empty", Binding{}, ""},
		{"index", Binding{3: {Index: 2}}, "3=i2/false"},
		{"present", Binding{0: {Present: true}}, "0=i0/true"},
		{"absent", Binding{7: {Present: false}}, "7=i0/false"},
		{"number literal", Binding{1: {Lit: "3.5", LitKind: KindNumber}}, "1=number:3:3.5"},
		{"separator literal", Binding{2: {Lit: "a;b=c:d", LitKind: KindString}}, "2=string:7:a;b=c:d"},
		{"empty literal", Binding{4: {LitKind: KindString}}, "4=string:0:"},
		{"multibyte literal", Binding{5: {Lit: "é", LitKind: KindString}}, "5=string:2:é"},
		{"indices", Binding{6: {Indices: []int{0, 2, 10}}}, "6={0,2,10}"},
		{"no indices", Binding{6: {Indices: []int{}}}, "6={}"},
		{"no reps", Binding{8: {Reps: []Binding{}}}, "8=[]"},
		{"reps", Binding{9: {Reps: []Binding{
			{12: {Index: 1}, 11: {Lit: "x;1=y", LitKind: KindString}},
			{},
			{12: {Reps: []Binding{{13: {Indices: []int{1}}}}}},
		}}}, "9=[11=string:5:x;1=y;12=i1/false,,12=[13={1}]]"},
		{"sorted ids", Binding{
			20: {Index: 1},
			3:  {Present: true},
			11: {Lit: "10", LitKind: KindNumber},
		}, "3=i0/true;11=number:2:10;20=i1/false"},
	} {
		if got := tc.b.KeyString(); got != tc.want {
			t.Errorf("%s: KeyString = %q, want %q", tc.name, got, tc.want)
		}
	}
}
