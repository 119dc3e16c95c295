package main

import (
	"testing"
	"time"

	"lifeguard/internal/wire"
)

// pushPullRespSource reads the codec's framing by hand; pin it to the
// codec.
func TestPushPullRespSourceMatchesCodec(t *testing.T) {
	resp := wire.Marshal(&wire.PushPullResp{Source: "agent-05", States: []wire.PushPullState{{Name: "agent-05", Addr: "127.0.0.1:1", Incarnation: 1, State: 1}}})
	if src, ok := pushPullRespSource(resp); !ok || src != "agent-05" {
		t.Errorf("response: got %q, %v", src, ok)
	}
	req := wire.Marshal(&wire.PushPullReq{Source: "agent-05", Join: true})
	if _, ok := pushPullRespSource(req); ok {
		t.Error("a push-pull request was taken for a response")
	}
	for _, bad := range [][]byte{nil, {byte(wire.TypePushPullResp)}, {byte(wire.TypePushPullResp), 200, 'x'}} {
		if _, ok := pushPullRespSource(bad); ok {
			t.Errorf("truncated packet %v accepted", bad)
		}
	}
}

// A probe nobody answers must end as a failed operation after
// opTimeout, not hang the generator.
func TestUnansweredProbesFailInsteadOfHanging(t *testing.T) {
	silent, err := bindTransport()
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silent.Run(func(string, []byte) {}) // reads and drops every ping
	gen, err := newProbeGen(&member{name: "nobody", tr: silent})
	if err != nil {
		t.Fatal(err)
	}
	defer gen.tr.Close()

	start := time.Now()
	rtts, failed, _ := gen.run(5, 4, nil)
	if len(rtts) != 0 || failed != 5 {
		t.Errorf("%d acked, %d failed, want 0 and 5", len(rtts), failed)
	}
	if d := time.Since(start); d < opTimeout || d > 4*opTimeout {
		t.Errorf("gave up after %v, want a little over %v per window", d, opTimeout)
	}
}
