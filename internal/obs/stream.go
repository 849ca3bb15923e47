package obs

import (
	"sync"
	"sync/atomic"
)

// StreamFrame is one per-quantum live-telemetry sample published on the
// suite's StreamBus: the quantum phase breakdown, engine activity, energy,
// pose, inference progress, queue high-water marks, and the determinism
// fingerprint. Frames are plain value structs — publishing copies one into
// each subscriber channel, no per-publish allocation.
type StreamFrame struct {
	Mission string `json:"mission,omitempty"`
	Seq     uint64 `json:"seq"`

	// Quantum phase wall times (host-side), nanoseconds.
	WallNs     int64 `json:"wall_ns"`
	RTLNs      int64 `json:"rtl_ns"`
	EnvNs      int64 `json:"env_ns"`
	ExchangeNs int64 `json:"exchange_ns"`

	// Engine activity and energy at quantum end.
	Cycles   uint64 `json:"cycles"`
	EnergyPJ uint64 `json:"energy_pj,omitempty"`
	PowerMW  int64  `json:"power_mw,omitempty"`

	// Boundary telemetry (authoritative environment state).
	TimeSec         float64 `json:"time_sec"`
	PosX            float64 `json:"pos_x"`
	PosY            float64 `json:"pos_y"`
	PosZ            float64 `json:"pos_z"`
	Yaw             float64 `json:"yaw"`
	CollisionCount  int     `json:"collision_count"`
	MissionComplete bool    `json:"mission_complete,omitempty"`

	// Inference progress: completed count and mean simulated latency.
	Inferences   uint64  `json:"inferences"`
	InferMeanSec float64 `json:"infer_mean_sec"`

	// Bridge queue high-water marks, bytes.
	RxHWM int64 `json:"rx_hwm"`
	TxHWM int64 `json:"tx_hwm"`

	// Fingerprint is the rolling determinism fingerprint after this
	// quantum, in hex (strings survive JSON consumers that parse numbers
	// as float64).
	Fingerprint string `json:"fingerprint,omitempty"`

	// Heartbeat marks a keepalive frame emitted by /stream.ndjson when no
	// quantum completed within the heartbeat interval.
	Heartbeat bool `json:"heartbeat,omitempty"`
	// Dropped is the per-subscriber cumulative count of frames this
	// subscriber missed because its buffer was full (stamped by the
	// delivery side, not the publisher).
	Dropped uint64 `json:"dropped,omitempty"`
}

// StreamSub is one subscription on a StreamBus: a bounded frame channel
// plus a drop counter. A slow reader loses frames (counted), never stalls
// the publisher.
type StreamSub struct {
	ch      chan StreamFrame
	dropped atomic.Uint64
}

// C returns the subscriber's frame channel.
func (s *StreamSub) C() <-chan StreamFrame { return s.ch }

// Dropped returns how many frames this subscriber has missed so far.
func (s *StreamSub) Dropped() uint64 { return s.dropped.Load() }

// StreamBus is a bounded, drop-counting pub/sub for live telemetry frames.
// Publish is wait-free toward subscribers: each send is a non-blocking
// channel write, and a full subscriber buffer counts a drop instead of
// blocking. With zero subscribers Publish is one atomic load — cheap
// enough to sit on the quantum hot path unconditionally. A nil *StreamBus
// discards everything.
type StreamBus struct {
	mu    sync.Mutex   // guards subscribe/unsubscribe (copy-on-write)
	subs  atomic.Value // []*StreamSub, replaced wholesale under mu
	nsubs atomic.Int32

	// Frames/DroppedTotal count published frames and bus-wide drops
	// (registered by Suite under rose_stream_*).
	Frames       *Counter
	DroppedTotal *Counter
}

// NewStreamBus builds a bus; reg (may be nil) receives the bus counters.
func NewStreamBus(reg *Registry) *StreamBus {
	b := &StreamBus{
		Frames: reg.Counter("rose_stream_frames_total",
			"Telemetry frames published on the live stream bus."),
		DroppedTotal: reg.Counter("rose_stream_dropped_frames_total",
			"Telemetry frames dropped across all stream subscribers (slow readers)."),
	}
	b.subs.Store([]*StreamSub(nil))
	return b
}

// Active reports whether any subscriber is attached — the publisher's cheap
// pre-flight check before assembling a frame. Nil-safe (false).
func (b *StreamBus) Active() bool {
	return b != nil && b.nsubs.Load() > 0
}

// Subscribe attaches a new subscriber with the given frame buffer capacity
// (<= 0 selects 256). Nil-safe (returns nil; a nil subscriber has a nil
// channel, which blocks forever — callers guard on the bus instead).
func (b *StreamBus) Subscribe(buf int) *StreamSub {
	if b == nil {
		return nil
	}
	if buf <= 0 {
		buf = 256
	}
	sub := &StreamSub{ch: make(chan StreamFrame, buf)}
	b.mu.Lock()
	cur := b.subs.Load().([]*StreamSub)
	next := make([]*StreamSub, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = sub
	b.subs.Store(next)
	b.nsubs.Store(int32(len(next)))
	b.mu.Unlock()
	return sub
}

// Unsubscribe detaches a subscriber. The channel is deliberately left open:
// a Publish racing with Unsubscribe may still hold the previous subscriber
// slice and send one last frame, which must not panic. Readers stop by
// abandoning the channel, not by waiting for a close.
func (b *StreamBus) Unsubscribe(sub *StreamSub) {
	if b == nil || sub == nil {
		return
	}
	b.mu.Lock()
	cur := b.subs.Load().([]*StreamSub)
	next := make([]*StreamSub, 0, len(cur))
	for _, s := range cur {
		if s != sub {
			next = append(next, s)
		}
	}
	b.subs.Store(next)
	b.nsubs.Store(int32(len(next)))
	b.mu.Unlock()
}

// Publish fans one frame out to every subscriber, non-blocking. Returns
// immediately with zero subscribers.
func (b *StreamBus) Publish(f StreamFrame) {
	if b == nil || b.nsubs.Load() == 0 {
		return
	}
	b.Frames.Inc()
	for _, sub := range b.subs.Load().([]*StreamSub) {
		select {
		case sub.ch <- f:
		default:
			sub.dropped.Add(1)
			b.DroppedTotal.Inc()
		}
	}
}
