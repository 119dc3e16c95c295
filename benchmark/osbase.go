package main

import (
	"fmt"
	"io"
	"net"
	"time"
)

// Raw-socket baselines on the same loopback the agents use: what a
// round trip costs with none of this repository's code on the path.
// They bound how much of the agent workloads' numbers is ours to win.

const (
	echoLatencyOps = 20000
	echoThroughOps = 100000
	dialOps        = 2000
	baselinePacket = 32 // bytes, about an encoded ping
)

// osBaselines fills the os.* metrics.
func osBaselines(out map[string]float64) error {
	p50, rps, err := udpEchoBaseline()
	if err != nil {
		return fmt.Errorf("udp echo baseline: %w", err)
	}
	dial, err := tcpDialBaseline()
	if err != nil {
		return fmt.Errorf("tcp dial baseline: %w", err)
	}
	out["os.udp_echo_rtt_p50_us"] = p50 / 1e3
	out["os.udp_echo_rps"] = rps
	out["os.tcp_dial_rtt_p50_us"] = dial / 1e3
	return nil
}

// udpEchoBaseline returns the median round trip (ns) of a closed loop
// at window 1 against a goroutine that echoes datagrams, and the
// echoes per second at window 16.
func udpEchoBaseline() (p50Ns, rps float64, err error) {
	server, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, 0, err
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		buf := make([]byte, 2048)
		for {
			n, from, err := server.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed
			}
			_, _ = server.WriteToUDPAddrPort(buf[:n], from)
		}
	}()
	defer func() {
		_ = server.Close()
		<-stopped
	}()

	client, err := net.DialUDP("udp", nil, server.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, 0, err
	}
	defer client.Close()
	// One deadline for the whole baseline: a lost datagram ends it with
	// an error instead of hanging.
	if err := client.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, 0, err
	}
	pkt, buf := make([]byte, baselinePacket), make([]byte, 2048)
	rtts := make([]float64, 0, echoLatencyOps)
	for i := 0; i < echoLatencyOps; i++ {
		start := time.Now()
		if _, err := client.Write(pkt); err != nil {
			return 0, 0, err
		}
		if _, err := client.Read(buf); err != nil {
			return 0, 0, err
		}
		rtts = append(rtts, float64(time.Since(start)))
	}
	for i := 0; i < probeWindow; i++ {
		if _, err := client.Write(pkt); err != nil {
			return 0, 0, err
		}
	}
	start := time.Now()
	for i := 0; i < echoThroughOps; i++ {
		if _, err := client.Read(buf); err != nil {
			return 0, 0, err
		}
		if _, err := client.Write(pkt); err != nil {
			return 0, 0, err
		}
	}
	return median(rtts), echoThroughOps / time.Since(start).Seconds(), nil
}

// tcpDialBaseline returns the median time (ns) to dial a fresh loopback
// connection, write a small frame, and see the peer close after
// reading it — the shape of one nettrans reliable send.
func tcpDialBaseline() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		buf := make([]byte, baselinePacket)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // closed
			}
			_ = conn.SetDeadline(time.Now().Add(opTimeout))
			_, _ = io.ReadFull(conn, buf)
			_ = conn.Close()
		}
	}()
	defer func() {
		_ = ln.Close()
		<-stopped
	}()

	pkt, buf := make([]byte, baselinePacket), make([]byte, 1)
	rtts := make([]float64, 0, dialOps)
	for i := 0; i < dialOps; i++ {
		start := time.Now()
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), opTimeout)
		if err != nil {
			return 0, err
		}
		_ = conn.SetDeadline(time.Now().Add(opTimeout))
		if _, err := conn.Write(pkt); err != nil {
			_ = conn.Close()
			return 0, err
		}
		if _, err := conn.Read(buf); err != io.EOF {
			_ = conn.Close()
			return 0, fmt.Errorf("expected EOF after frame, got %v", err)
		}
		_ = conn.Close()
		rtts = append(rtts, float64(time.Since(start)))
	}
	return median(rtts), nil
}
