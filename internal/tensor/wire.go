package tensor

import "fmt"

// Wire is the gob form of a dense tensor. The cluster protocol sends it
// as is (feeds, fetches, Const attributes, variable snapshots); the
// rendezvous data plane and checkpoint files keep the same fields inline
// in their own records. All three rebuild tensors through FromWire.
type Wire struct {
	DType int
	Shape []int
	F     []float64
	I     []int64
	B     []bool
	S     []string
}

// ToWire converts a tensor for transport (nil stays nil). The payload
// slices are shared, not copied: the caller encodes before anything
// mutates the tensor.
func ToWire(t *Tensor) *Wire {
	if t == nil {
		return nil
	}
	return &Wire{DType: int(t.dtype), Shape: t.Shape(), F: t.F, I: t.I, B: t.B, S: t.S}
}

// FromWire rebuilds a tensor (nil stays nil). The wire form is untrusted:
// dtype, dimension signs and the shape/payload element count are all
// validated before the panicking constructors run, so a malformed or
// hostile message yields an error, never a panic in the receiver.
func FromWire(w *Wire) (*Tensor, error) {
	if w == nil {
		return nil, nil
	}
	var elems int
	switch DType(w.DType) {
	case Float:
		elems = len(w.F)
	case Int:
		elems = len(w.I)
	case Bool:
		elems = len(w.B)
	case Str:
		elems = len(w.S)
	default:
		return nil, fmt.Errorf("tensor: unknown dtype %d on the wire", w.DType)
	}
	if err := CheckShape(w.Shape, elems); err != nil {
		return nil, err
	}
	switch DType(w.DType) {
	case Int:
		return FromInts(w.I, w.Shape...), nil
	case Bool:
		return FromBools(w.B, w.Shape...), nil
	case Str:
		return FromStrings(w.S, w.Shape...), nil
	default:
		return FromFloats(w.F, w.Shape...), nil
	}
}
