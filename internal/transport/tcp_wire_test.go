package transport

import (
	"errors"
	"math"
	"testing"

	"aggregathor/internal/tensor"
)

// TestTCPMixedWidthPeersRejectLoudly pins the wire-format negotiation
// contract on the reliable path: a dialer and listener configured with
// different coordinate widths must fail loudly with ErrWireFormat on the
// first frame — never silently mis-decode, and never report a generic
// framing error that hides the configuration mismatch. Both directions of
// the mismatch are covered, for both gradient and model frames.
func TestTCPMixedWidthPeersRejectLoudly(t *testing.T) {
	cases := []struct {
		name     string
		listener Codec
		dialer   Codec
	}{
		{"f64-listener_f32-dialer", Codec{}, Codec{Float32: true}},
		{"f32-listener_f64-dialer", Codec{Float32: true}, Codec{}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ln, err := ListenTCP("127.0.0.1:0", tc.listener)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			sendErr := make(chan error, 1)
			go func() {
				peer, err := DialTCP(ln.Addr(), tc.dialer)
				if err != nil {
					sendErr <- err
					return
				}
				defer peer.Close()
				if err := peer.SendGradient(&GradientMsg{Worker: 2, Step: 5, Grad: tensor.Vector{1, 2, 3}}); err != nil {
					sendErr <- err
					return
				}
				sendErr <- peer.SendModel(&ModelMsg{Step: 5, Params: tensor.Vector{4, 5}})
			}()

			conn, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			_, gradErr := conn.RecvGradient()
			if !errors.Is(gradErr, ErrWireFormat) {
				t.Fatalf("gradient from mixed-width peer: want ErrWireFormat, got %v", gradErr)
			}
			// ErrWireFormat unwraps to ErrBadFrame so existing malformed-input
			// handling catches it too.
			if !errors.Is(gradErr, ErrBadFrame) {
				t.Fatalf("ErrWireFormat must unwrap to ErrBadFrame, got %v", gradErr)
			}
			if _, err := conn.RecvModel(); !errors.Is(err, ErrWireFormat) {
				t.Fatalf("model from mixed-width peer: want ErrWireFormat, got %v", err)
			}
			if err := <-sendErr; err != nil {
				t.Fatalf("mixed-width send side failed before decode: %v", err)
			}
		})
	}
}

// TestModelFrameReusesBuffer pins the broadcast encoder's buffer contract
// and its framing: for both wire widths, EncodeModelFrame into a reused
// buffer that still holds a larger, stale frame keeps the buffer's storage,
// and the frame written with WriteFrame reads back through RecvModel as the
// sent step and the codec's rounding of every coordinate, bit for bit.
func TestModelFrameReusesBuffer(t *testing.T) {
	params := tensor.Vector{1.5, -2.25, math.Pi, 0, math.Copysign(0, -1),
		math.Inf(1), 5e-324, math.MaxFloat64, 1e-40}
	msg := &ModelMsg{Step: 1<<40 + 3, Params: params}
	for _, c := range []Codec{{Float32: true}, {Float32: false}} {
		t.Run(c.WireName(), func(t *testing.T) {
			stale := c.EncodeModelFrame(nil, &ModelMsg{Step: 9, Params: tensor.Vector{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}})
			frame := c.EncodeModelFrame(stale, msg)
			if &frame[0] != &stale[0] {
				t.Fatal("EncodeModelFrame reallocated a buffer with enough capacity")
			}

			ln, err := ListenTCP("127.0.0.1:0", c)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			sendErr := make(chan error, 1)
			go func() {
				peer, err := DialTCP(ln.Addr(), c)
				if err != nil {
					sendErr <- err
					return
				}
				defer peer.Close()
				sendErr <- peer.WriteFrame(frame)
			}()
			conn, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			got, err := conn.RecvModel()
			if err != nil {
				t.Fatal(err)
			}
			if err := <-sendErr; err != nil {
				t.Fatal(err)
			}
			if got.Step != msg.Step || len(got.Params) != len(params) {
				t.Fatalf("received step %d dim %d, sent step %d dim %d", got.Step, len(got.Params), msg.Step, len(params))
			}
			for i, p := range params {
				if c.Float32 {
					p = float64(float32(p))
				}
				if a, b := math.Float64bits(got.Params[i]), math.Float64bits(p); a != b {
					t.Fatalf("coord %d: received bits %x, want %x", i, a, b)
				}
			}
		})
	}
}
