package defw

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	// Length prefix claiming 1 GiB must be refused before allocation.
	buf.Write([]byte{0x40, 0x00, 0x00, 0x00})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestForgedFrameHeaderAllocatesOnlyWhatArrives: a length prefix claiming
// 128 MiB followed by EOF must fail without the reader allocating anywhere
// near the claimed size.
func TestForgedFrameHeaderAllocatesOnlyWhatArrives(t *testing.T) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, err := readFrame(bytes.NewReader([]byte{0x08, 0x00, 0x00, 0x00}))
	runtime.ReadMemStats(&ms)
	if err == nil {
		t.Fatal("forged frame with no payload accepted")
	}
	if grew := ms.TotalAlloc - before; grew >= 1<<20 {
		t.Fatalf("forged 128 MiB header allocated %d bytes before any payload arrived", grew)
	}
}

// TestLargeFrameRoundTrip: a frame above the exact-allocation size still
// round-trips byte for byte, and one cut short fails.
func TestLargeFrameRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 30000)
	var buf bytes.Buffer
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	got, err := readFrame(bytes.NewReader(wire))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large frame round trip: %d bytes, err %v", len(got), err)
	}
	if _, err := readFrame(bytes.NewReader(wire[:len(wire)-1])); err == nil {
		t.Fatal("truncated large frame accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte(`{"hello":"world"}`)
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("round trip %q", got)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 'x', 'y'}) // claims 10 bytes, has 2
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestLargePayloadThroughRPC(t *testing.T) {
	s := NewServer()
	s.Register("echo", HandlerFunc(func(m string, p []byte) ([]byte, error) { return p, nil }))
	c := NewPipeClient(s)
	defer func() { c.Close(); s.Close() }()
	// A ~1 MiB JSON payload (quoted string).
	big := `"` + strings.Repeat("a", 1<<20) + `"`
	out, err := c.Call("echo", "run", []byte(big))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(big) {
		t.Fatalf("size %d vs %d", len(out), len(big))
	}
}

func TestOversizedCallFailsCleanly(t *testing.T) {
	// A batch RPC whose payload exceeds the frame cap must return a clean
	// error on that call without killing the connection. The cap is
	// shrunk so the test does not allocate 256 MiB.
	old := maxFrameBytes
	maxFrameBytes = 1 << 16
	defer func() { maxFrameBytes = old }()

	s := NewServer()
	s.Register("echo", HandlerFunc(func(m string, p []byte) ([]byte, error) { return p, nil }))
	c := NewPipeClient(s)
	defer func() { c.Close(); s.Close() }()

	big := `"` + strings.Repeat("b", 1<<17) + `"`
	if _, err := c.Call("echo", "run", []byte(big)); err == nil || !strings.Contains(err.Error(), "frame too large") {
		t.Fatalf("oversized call error = %v, want frame-too-large", err)
	}
	// The connection must survive: a normal call still round-trips.
	out, err := c.Call("echo", "run", []byte(`"ok"`))
	if err != nil {
		t.Fatalf("connection dead after oversized call: %v", err)
	}
	if string(out) != `"ok"` {
		t.Fatalf("round trip %q", out)
	}
}

func TestOversizedResponseFailsCleanly(t *testing.T) {
	// A handler reply over the cap becomes an RPC error, not a hung call
	// or dead connection.
	old := maxFrameBytes
	maxFrameBytes = 1 << 16
	defer func() { maxFrameBytes = old }()

	s := NewServer()
	s.Register("blob", HandlerFunc(func(m string, p []byte) ([]byte, error) {
		return []byte(`"` + strings.Repeat("r", 1<<17) + `"`), nil
	}))
	s.Register("echo", HandlerFunc(func(m string, p []byte) ([]byte, error) { return p, nil }))
	c := NewPipeClient(s)
	defer func() { c.Close(); s.Close() }()

	if _, err := c.Call("blob", "run", nil); err == nil || !strings.Contains(err.Error(), "frame cap") {
		t.Fatalf("oversized response error = %v, want frame-cap error", err)
	}
	if _, err := c.Call("echo", "run", []byte(`"ok"`)); err != nil {
		t.Fatalf("connection dead after oversized response: %v", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s := NewServer()
	s.Register("echo", HandlerFunc(echoHandler))
	addr, err := s.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	call := c.Go("echo", "slow", nil)
	s.Close()
	if _, err := call.Result(); err == nil {
		// The slow handler may have finished before close; that's fine too —
		// but a second call must now fail.
		if _, err := c.Call("echo", "run", nil); err == nil {
			t.Fatal("call succeeded after server close")
		}
	}
}
