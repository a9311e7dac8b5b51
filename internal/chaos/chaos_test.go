package chaos

import (
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				io.Copy(nc, nc)
			}()
		}
	}()
	return ln.Addr().String()
}

func TestProxyRelayStallResume(t *testing.T) {
	proxy, err := NewProxy(echoServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	nc, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	echo := func(msg string) error {
		if _, err := nc.Write([]byte(msg)); err != nil {
			return err
		}
		buf := make([]byte, len(msg))
		_, err := io.ReadFull(nc, buf)
		return err
	}
	if err := echo("hello"); err != nil {
		t.Fatalf("echo through proxy: %v", err)
	}

	// A stalled proxy keeps the connection open but moves nothing.
	proxy.Stall()
	if !proxy.Stalled() {
		t.Fatal("Stalled() = false after Stall")
	}
	if _, err := nc.Write([]byte("stuck")); err != nil {
		t.Fatalf("write into stalled proxy: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 5)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("read succeeded through a stalled proxy")
	}
	nc.SetReadDeadline(time.Time{})

	// Resume delivers the in-flight bytes rather than losing them.
	proxy.Resume()
	if _, err := io.ReadFull(nc, buf); err != nil || string(buf) != "stuck" {
		t.Fatalf("read after resume = %q, %v", buf, err)
	}

	// Sever drops the live connection but keeps the listener serving.
	proxy.Sever()
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("read succeeded on a severed connection")
	}
	nc2, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatalf("dial after sever: %v", err)
	}
	defer nc2.Close()
	nc = nc2
	if err := echo("again"); err != nil {
		t.Fatalf("echo after sever: %v", err)
	}
}
