package rendezvous

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/tensor"
)

// FuzzNetDecode feeds arbitrary bytes through a Net's inbound stream path
// (gob decode of wireMsg, tensor reconstruction, delivery into the key's
// scope) and asserts it never panics: hostile dtypes, shapes that do not
// match their payload, negative or overflowing dimensions, and gob garbage
// must end as a decode error or an aborted scope.
func FuzzNetDecode(f *testing.F) {
	seed := func(msgs ...*wireMsg) {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for _, m := range msgs {
			if err := enc.Encode(m); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(buf.Bytes())
	}
	key := "g1.s1|" + sendKey("wB", "t0")
	seed(
		&wireMsg{Key: key, HasT: true, DType: int(tensor.Float), Shape: []int{2, 3}, F: []float64{1, 2, 3, 4, 5, 6}},
		&wireMsg{Key: "g1.s1|" + sendKey("wB", "t1"), Dead: true},
		&wireMsg{Key: "g1.s2|" + sendKey("wB", "t0"), HasT: true, DType: int(tensor.Str), Shape: []int{2}, S: []string{"a", "b"}},
	)
	seed(&wireMsg{Key: key, HasT: true, DType: int(tensor.Float), Shape: []int{2}, F: []float64{1, 2, 3}})
	seed(&wireMsg{Key: key, HasT: true, DType: int(tensor.Int), Shape: []int{-1}, I: []int64{1}})
	seed(&wireMsg{Key: key, HasT: true, DType: int(tensor.Bool), Shape: []int{1 << 32, 1 << 32}})
	seed(&wireMsg{Key: key, HasT: true, DType: 42})

	n, err := NewNet("wB", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(n.Close)
	all := func(string) bool { return true }
	f.Fuzz(func(t *testing.T, data []byte) {
		n.receive(bytes.NewReader(data))
		n.ReleaseScopesIf(all)
	})
}
