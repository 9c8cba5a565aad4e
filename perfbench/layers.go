package main

import (
	"fmt"
	"time"

	"aggregathor/internal/data"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// Standalone calls into one layer at a workload's shape. They run after the
// rounds, on an otherwise idle process, so each measures the layer alone.

// layerReps is how many calls each standalone measurement takes the median
// of.
const layerReps = 24

// gradientMS times (*nn.Network).Gradient at the task's model and batch.
func gradientMS(t task, seed int64) float64 {
	ds, factory := t.generate(seed)
	net := factory()
	s := data.NewUniformSampler(ds, seed)
	times := make([]float64, 0, layerReps)
	for i := 0; i < layerReps; i++ {
		x, y := s.Sample(t.batch)
		t0 := time.Now()
		net.Gradient(x, y)
		times = append(times, ms(time.Since(t0)))
	}
	return median(times)
}

// serve runs send on its own goroutine, once per value received on steps,
// and reports each result on sent, so that a transfer's two ends run
// concurrently. stop ends the goroutine and waits for it; every send's
// result must have been read first.
func serve(send func(step int) error) (steps chan<- int, sent <-chan error, stop func()) {
	in, out, done := make(chan int), make(chan error), make(chan struct{})
	go func() {
		defer close(done)
		for step := range in {
			out <- send(step)
		}
	}()
	return in, out, func() { close(in); <-done }
}

// udpPace mirrors the socket clusters' sender pacing (1 ms pause per 128 KB)
// so a standalone transfer takes the deployment's path.
const (
	udpPaceBurst = 128 << 10
	udpPaceDelay = time.Millisecond
)

// udpResult is the standalone UDP gradient transfer at one shape.
type udpResult struct {
	transferMS, packetsPerSec, allocsPerPacket float64
}

// udpTransfer times UDPSender.SendGradient → UDPReceiver.RecvGradient of a
// d-coordinate gradient over loopback, loss-free. Allocations are counted
// process-wide, sender and receiver together.
func udpTransfer(d int, codec transport.Codec) (udpResult, error) {
	recv, err := transport.ListenUDP("127.0.0.1:0", codec, transport.DropGradient, 1)
	if err != nil {
		return udpResult{}, err
	}
	defer recv.Close()
	send, err := transport.DialUDP(recv.Addr(), codec, 0, 0, 1)
	if err != nil {
		return udpResult{}, err
	}
	defer send.Close()
	send.SetPacing(udpPaceBurst, udpPaceDelay)

	grad := tensor.NewVector(d)
	for i := range grad {
		grad[i] = float64(i%97) / 97
	}
	steps, sent, stop := serve(func(step int) error {
		return send.SendGradient(&transport.GradientMsg{Worker: 0, Step: step, Grad: grad})
	})
	defer stop()

	pkts := codec.PacketsPerTransfer(d, transport.DefaultMTU)
	times := make([]float64, 0, layerReps)
	var allocs uint64
	for i := 0; i < layerReps; i++ {
		a0, t0 := heapAllocs(), time.Now()
		steps <- i
		msg, err := recv.RecvGradient(5 * time.Second)
		sendErr := <-sent
		dt := time.Since(t0)
		allocs += heapAllocs() - a0
		if sendErr != nil {
			return udpResult{}, fmt.Errorf("udp send: %w", sendErr)
		}
		if err != nil {
			return udpResult{}, fmt.Errorf("udp receive: %w", err)
		}
		if msg.Step != i || msg.Grad.Dim() != d {
			return udpResult{}, fmt.Errorf("udp transfer %d delivered step %d dim %d", i, msg.Step, msg.Grad.Dim())
		}
		times = append(times, ms(dt))
	}
	t := median(times)
	return udpResult{
		transferMS:      t,
		packetsPerSec:   share(float64(pkts), t/1e3),
		allocsPerPacket: float64(allocs) / float64(pkts*layerReps),
	}, nil
}

// tcpFrameMS times TCPConn.SendModel → RecvModel of a d-parameter model
// over loopback.
func tcpFrameMS(d int) (float64, error) {
	ln, err := transport.ListenTCP("127.0.0.1:0", transport.Codec{})
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	client, err := transport.DialTCP(ln.Addr(), transport.Codec{})
	if err != nil {
		return 0, err
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		return 0, err
	}
	defer server.Close()

	params := tensor.NewVector(d)
	steps, sent, stop := serve(func(step int) error {
		return server.SendModel(&transport.ModelMsg{Step: step, Params: params})
	})
	defer stop()

	times := make([]float64, 0, layerReps)
	for i := 0; i < layerReps; i++ {
		t0 := time.Now()
		steps <- i
		msg, err := client.RecvModel()
		sendErr := <-sent
		dt := time.Since(t0)
		if sendErr != nil {
			return 0, fmt.Errorf("tcp send: %w", sendErr)
		}
		if err != nil {
			return 0, fmt.Errorf("tcp receive: %w", err)
		}
		if msg.Step != i || msg.Params.Dim() != d {
			return 0, fmt.Errorf("tcp frame %d delivered step %d dim %d", i, msg.Step, msg.Params.Dim())
		}
		times = append(times, ms(dt))
	}
	return median(times), nil
}

// standaloneLayers fills the standalone per-layer metrics at a shape.
func standaloneLayers(r *report, t task, codec transport.Codec, seed int64) error {
	r.set("nn.gradient_ms", gradientMS(t, seed))
	u, err := udpTransfer(t.dim(), codec)
	if err != nil {
		return err
	}
	r.set("transport.udp_transfer_ms", u.transferMS)
	r.set("transport.packets_per_s", u.packetsPerSec)
	r.set("transport.allocs_per_packet", u.allocsPerPacket)
	f, err := tcpFrameMS(t.dim())
	if err != nil {
		return err
	}
	r.set("transport.tcp_frame_ms", f)
	return nil
}
