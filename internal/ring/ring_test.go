package ring

import "testing"

// TestBufferMatchesSlice drives a Buffer and a plain slice queue through
// interleaved pushes, pops, bulk pops and overwrites that wrap the head
// around and force several doublings, and requires every read to agree.
func TestBufferMatchesSlice(t *testing.T) {
	var r Buffer[int]
	var ref []int
	check := func(step int) {
		t.Helper()
		if r.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, r.Len(), len(ref))
		}
		if c := r.Cap(); c < r.Len() || c&(c-1) != 0 {
			t.Fatalf("step %d: Cap %d is not a power of two >= Len %d", step, c, r.Len())
		}
		for i, want := range ref {
			if got := r.At(i); got != want {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, want)
			}
		}
		v, ok := r.Peek()
		if ok != (len(ref) > 0) || (ok && v != ref[0]) {
			t.Fatalf("step %d: Peek = %d, %v; want head of %v", step, v, ok, ref)
		}
	}
	next := 0
	for step := 0; step < 400; step++ {
		switch {
		case step%7 == 3 && len(ref) > 0:
			v, ok := r.Pop()
			if !ok || v != ref[0] {
				t.Fatalf("step %d: Pop = %d, %v; want %d", step, v, ok, ref[0])
			}
			ref = ref[1:]
		case step%11 == 5:
			n := len(ref) / 3
			r.PopN(n)
			ref = ref[n:]
		case step%13 == 8 && len(ref) > 0:
			i := step % len(ref)
			r.Set(i, -step)
			ref[i] = -step
		default:
			r.Push(next)
			ref = append(ref, next)
			next++
		}
		check(step)
	}
	for len(ref) > 0 {
		v, _ := r.Pop()
		if v != ref[0] {
			t.Fatalf("drain: Pop = %d, want %d", v, ref[0])
		}
		ref = ref[1:]
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on an empty buffer reported an entry")
	}
	if _, ok := r.Peek(); ok {
		t.Fatal("Peek on an empty buffer reported an entry")
	}
}

// TestBufferReleasesPoppedEntries pins that Pop and PopN clear the slots
// they vacate, so a buffer of pointers keeps nothing it no longer holds
// reachable.
func TestBufferReleasesPoppedEntries(t *testing.T) {
	var r Buffer[*int]
	for i := 0; i < 10; i++ {
		v := i
		r.Push(&v)
	}
	r.Pop()
	r.PopN(4)
	for i, p := range r.buf {
		if live := i >= r.head && i < r.head+r.size; (p != nil) != live {
			t.Fatalf("slot %d holds %v; live %v", i, p, live)
		}
	}
}

// TestBufferZeroValueAllocatesOnPush pins that an empty Buffer costs no
// storage until its first Push, and that Cap then reads the first size.
func TestBufferZeroValueAllocatesOnPush(t *testing.T) {
	var r Buffer[uint8]
	if r.Cap() != 0 {
		t.Fatalf("zero Buffer Cap = %d, want 0", r.Cap())
	}
	r.Push(1)
	if r.Cap() != 16 {
		t.Fatalf("Cap after one Push = %d, want 16", r.Cap())
	}
}
