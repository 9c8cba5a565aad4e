package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"aggregathor/internal/tensor"
)

// FuzzDecodePacket feeds arbitrary bytes to the datagram decoder under both
// wire widths: it must never panic, whatever it accepts must re-encode to
// the exact input bytes (decode is the inverse of encode on its image)
// except that float32 signalling NaNs come back quieted, and
// anything accepted under one width must be rejected by the opposite-width
// codec with ErrWireFormat — the loud mismatch the width byte exists for.
// Under both widths, decoding into a dirty, reused packet (the receiver's
// zero-allocation path) must agree with DecodePacket exactly.
func FuzzDecodePacket(f *testing.F) {
	for _, c := range []Codec{{Float32: true}, {Float32: false}} {
		msg := &GradientMsg{Worker: 3, Step: 41, Grad: tensor.Vector{1.5, -2.25, math.Pi, 0}}
		for _, p := range c.Split(msg, 64) {
			f.Add(c.EncodePacket(&p), c.Float32)
		}
		empty := &GradientMsg{Worker: 0, Step: 0, Grad: tensor.Vector{}}
		for _, p := range c.Split(empty, DefaultMTU) {
			f.Add(c.EncodePacket(&p), c.Float32)
		}
	}
	f.Add([]byte{}, true)
	f.Add([]byte{0xA7, 0x06, 0x6E, 0xA6}, false)             // magic, truncated
	f.Add(bytes.Repeat([]byte{0xFF}, packetHeaderLen), true) // header-sized garbage

	f.Fuzz(func(t *testing.T, data []byte, float32Wire bool) {
		c := Codec{Float32: float32Wire}
		// One scratch packet reused across both widths, starting dirty with
		// a capacity that sometimes fits the payload and sometimes not.
		dirty := make(tensor.Vector, 1+len(data)%97)
		for i := range dirty {
			dirty[i] = math.Inf(-1)
		}
		scratch := &Packet{Worker: -7, Step: 99, Loss: math.NaN(), Dim: 5, Offset: 2, Coords: dirty[:1]}
		checkDecodeIntoParity(t, c, data, scratch)
		checkDecodeIntoParity(t, Codec{Float32: !float32Wire}, data, scratch)
		p, err := c.DecodePacket(data)
		if err != nil {
			if p != nil {
				t.Fatal("decoder returned both a packet and an error")
			}
			return
		}
		if p.Offset < 0 || p.Offset+len(p.Coords) > p.Dim {
			t.Fatalf("accepted packet with range [%d,%d) outside dim %d", p.Offset, p.Offset+len(p.Coords), p.Dim)
		}
		re := c.EncodePacket(p)
		if !bytes.Equal(re, quietedFloat32NaNs(c, data, packetHeaderLen)) {
			t.Fatalf("decode->encode not the identity:\n in  %x\n out %x", data, re)
		}
		other := Codec{Float32: !float32Wire}
		if _, err := other.DecodePacket(data); !errors.Is(err, ErrWireFormat) {
			t.Fatalf("opposite-width decode: want ErrWireFormat, got %v", err)
		}
	})
}

// checkDecodeIntoParity decodes data with DecodePacket and with
// DecodePacketInto into the reused scratch packet and requires the same
// outcome: the same error (class and text), or the same header fields and
// coordinate bits. A failed decode must leave the scratch untouched.
func checkDecodeIntoParity(t *testing.T, c Codec, data []byte, scratch *Packet) {
	t.Helper()
	before := *scratch
	want, wantErr := c.DecodePacket(data)
	gotErr := c.DecodePacketInto(data, scratch)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: DecodePacket err %v, DecodePacketInto err %v", c.WireName(), wantErr, gotErr)
	}
	if wantErr != nil {
		if errors.Is(gotErr, ErrWireFormat) != errors.Is(wantErr, ErrWireFormat) ||
			!errors.Is(gotErr, ErrBadFrame) || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error class differs: DecodePacket %v, DecodePacketInto %v", c.WireName(), wantErr, gotErr)
		}
		if scratch.Worker != before.Worker || scratch.Step != before.Step ||
			math.Float64bits(scratch.Loss) != math.Float64bits(before.Loss) ||
			scratch.Dim != before.Dim || scratch.Offset != before.Offset ||
			len(scratch.Coords) != len(before.Coords) || cap(scratch.Coords) != cap(before.Coords) {
			t.Fatalf("%s: failed decode modified the scratch packet: %+v -> %+v", c.WireName(), before, *scratch)
		}
		return
	}
	if scratch.Worker != want.Worker || scratch.Step != want.Step ||
		math.Float64bits(scratch.Loss) != math.Float64bits(want.Loss) ||
		scratch.Dim != want.Dim || scratch.Offset != want.Offset {
		t.Fatalf("%s: header differs: DecodePacket %+v, DecodePacketInto %+v", c.WireName(), *want, *scratch)
	}
	if len(scratch.Coords) != len(want.Coords) {
		t.Fatalf("%s: %d coords, DecodePacket gave %d", c.WireName(), len(scratch.Coords), len(want.Coords))
	}
	for i := range want.Coords {
		if math.Float64bits(scratch.Coords[i]) != math.Float64bits(want.Coords[i]) {
			t.Fatalf("%s: coord %d bits %x, DecodePacket gave %x", c.WireName(), i,
				math.Float64bits(scratch.Coords[i]), math.Float64bits(want.Coords[i]))
		}
	}
}

// quietedFloat32NaNs returns the bytes re-encoding a decoded frame must
// produce: wire itself, except that on the float32 wire every coordinate
// (from offset on) holding a signalling NaN has its quiet bit set. Decoding
// widens each float32 coordinate to float64, and the hardware quiets a
// signalling NaN on the way; encode never emits one, and a NaN coordinate
// stays a NaN the GARs must contain either way, so the identity property
// holds modulo that quieting. The decoder does not reject such frames:
// hostile NaN coordinates are the GARs' job, not the wire's.
func quietedFloat32NaNs(c Codec, wire []byte, offset int) []byte {
	if !c.Float32 {
		return wire
	}
	out := bytes.Clone(wire)
	for i := offset; i+4 <= len(out); i += 4 {
		bits := binary.LittleEndian.Uint32(out[i:])
		if math.IsNaN(float64(math.Float32frombits(bits))) {
			binary.LittleEndian.PutUint32(out[i:], bits|0x00400000)
		}
	}
	return out
}

// gradientHeaderLen is the EncodeGradient header size; coordinates follow.
const gradientHeaderLen = 31

// FuzzDecodeGradient covers the whole-message framing the TCP path uses,
// under both wire widths, including the cross-width rejection property.
func FuzzDecodeGradient(f *testing.F) {
	for _, c := range []Codec{{Float32: true}, {Float32: false}} {
		f.Add(c.EncodeGradient(&GradientMsg{Worker: 1, Step: 9, Grad: tensor.Vector{0.5, -0.5}}), c.Float32)
		f.Add(c.EncodeGradient(&GradientMsg{Grad: tensor.Vector{}}), c.Float32)
	}
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, float32Wire bool) {
		c := Codec{Float32: float32Wire}
		m, err := c.DecodeGradient(data)
		if err != nil {
			return
		}
		re := c.EncodeGradient(m)
		if !bytes.Equal(re, quietedFloat32NaNs(c, data, gradientHeaderLen)) {
			t.Fatalf("decode->encode not the identity:\n in  %x\n out %x", data, re)
		}
		other := Codec{Float32: !float32Wire}
		if _, err := other.DecodeGradient(data); !errors.Is(err, ErrWireFormat) {
			t.Fatalf("opposite-width decode: want ErrWireFormat, got %v", err)
		}
	})
}

// FuzzReassembler feeds arbitrary *sequences* of datagrams through the
// decode→reassemble pipeline — the exact surface a Byzantine worker reaches
// on the UDP path. Single-packet decode fuzzing (FuzzDecodePacket) cannot
// reach the cross-packet state: the conflicting-Dim crash needed two
// individually valid packets sharing a (worker, step) key, which is the
// seeded crasher below. The reassembler must never panic, every completed
// gradient must be self-consistent, and pending state must stay bounded by
// the number of distinct keys offered.
func FuzzReassembler(f *testing.F) {
	c := Codec{Float32: true}
	// Seed: a legitimate split, interleaved across two workers.
	var legit []byte
	for _, worker := range []int{0, 1} {
		msg := &GradientMsg{Worker: worker, Step: 3, Loss: 0.5, Grad: tensor.Vector{1, 2, 3, 4, 5, 6, 7, 8}}
		for _, p := range c.Split(msg, 64) {
			legit = appendChunk(legit, c.EncodePacket(&p))
		}
	}
	f.Add(legit)
	// Seed: model-tagged (ModelWorkerID) sequences — the worker-side model
	// endpoint path: one complete broadcast, one torn broadcast, and
	// spoofed packets claiming distinct future steps (each used to pin a
	// model-sized partial on the worker with nothing ever evicting it).
	var models []byte
	model := &GradientMsg{Worker: ModelWorkerID, Step: 7, Loss: 0, Grad: tensor.Vector{1, 2, 3, 4, 5, 6, 7, 8}}
	for _, p := range c.Split(model, 64) {
		models = appendChunk(models, c.EncodePacket(&p))
	}
	torn := &GradientMsg{Worker: ModelWorkerID, Step: 8, Grad: tensor.Vector{9, 8, 7, 6, 5, 4, 3, 2}}
	for i, p := range c.Split(torn, 64) {
		if i == 0 {
			continue // the "scheduled drop": first packet never sent
		}
		models = appendChunk(models, c.EncodePacket(&p))
	}
	for step := 100; step < 104; step++ {
		spoof := &Packet{Worker: ModelWorkerID, Step: step, Dim: 4096, Offset: 0, Coords: tensor.Vector{1}}
		models = appendChunk(models, c.EncodePacket(spoof))
	}
	f.Add(models)
	// Seed: the conflicting-Dim crasher — two self-consistent packets, same
	// key, different dims (the second used to index out of range).
	small := &Packet{Worker: 1, Step: 1, Dim: 4, Offset: 0, Coords: tensor.Vector{1, 2}}
	large := &Packet{Worker: 1, Step: 1, Dim: 4096, Offset: 4000, Coords: tensor.Vector{9, 9, 9}}
	f.Add(appendChunk(appendChunk(nil, c.EncodePacket(small)), c.EncodePacket(large)))
	f.Add(appendChunk(appendChunk(nil, c.EncodePacket(large)), c.EncodePacket(small)))
	// Seed: raw garbage chunks.
	f.Add(appendChunk(appendChunk(nil, []byte("garbage")), bytes.Repeat([]byte{0xFF}, packetHeaderLen)))

	f.Fuzz(func(t *testing.T, data []byte) {
		asm := NewReassembler(FillNaN, nil)
		asm.SetMaxDim(1 << 16) // the allocation bound itself is under test
		keys := map[[2]int]bool{}
		for len(data) >= 2 {
			n := int(data[0])<<8 | int(data[1])
			data = data[2:]
			if n > len(data) {
				n = len(data)
			}
			chunk := data[:n]
			data = data[n:]
			p, err := c.DecodePacket(chunk)
			if err != nil {
				continue
			}
			keys[[2]int{p.Worker, p.Step}] = true
			msg, done := asm.Offer(p)
			if done {
				if msg == nil {
					t.Fatal("done with nil message")
				}
				if len(msg.Grad) != p.Dim {
					t.Fatalf("completed gradient dim %d, packet dim %d", len(msg.Grad), p.Dim)
				}
				if msg.Worker != p.Worker || msg.Step != p.Step {
					t.Fatalf("completed gradient key (%d,%d) from packet (%d,%d)",
						msg.Worker, msg.Step, p.Worker, p.Step)
				}
			}
			if asm.Pending() > len(keys) {
				t.Fatalf("pending %d exceeds %d distinct keys", asm.Pending(), len(keys))
			}
		}
		// Every partial must flush or discard cleanly, whatever arrived.
		for key := range keys {
			asm.Flush(key[0], key[1])
		}
		if asm.Pending() != 0 {
			t.Fatalf("%d partials leaked after flushing every key", asm.Pending())
		}
	})
}

// appendChunk length-prefixes one datagram in the fuzz corpus encoding
// (u16 big-endian length, then the bytes).
func appendChunk(dst, chunk []byte) []byte {
	dst = append(dst, byte(len(chunk)>>8), byte(len(chunk)))
	return append(dst, chunk...)
}

// TestPacketRoundTripAllWidths pins the encode→decode→encode identity on
// structured packets (the property -fuzz explores from arbitrary bytes).
func TestPacketRoundTripAllWidths(t *testing.T) {
	for _, c := range []Codec{{Float32: true}, {Float32: false}} {
		msg := &GradientMsg{Worker: 7, Step: 1 << 30, Grad: tensor.NewVector(301)}
		for i := range msg.Grad {
			msg.Grad[i] = float64(i) * 0.25
		}
		msg.Grad[0] = math.NaN()
		msg.Grad[1] = math.Inf(1)
		for _, p := range c.Split(msg, DefaultMTU) {
			raw := c.EncodePacket(&p)
			got, err := c.DecodePacket(raw)
			if err != nil {
				t.Fatalf("float32=%v: %v", c.Float32, err)
			}
			if got.Worker != p.Worker || got.Step != p.Step || got.Dim != p.Dim || got.Offset != p.Offset {
				t.Fatalf("float32=%v: header changed: %+v vs %+v", c.Float32, got, p)
			}
			if !bytes.Equal(c.EncodePacket(got), raw) {
				t.Fatalf("float32=%v: re-encode differs", c.Float32)
			}
		}
	}
}
