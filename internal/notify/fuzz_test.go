package notify

import (
	"bufio"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// wsFrame is one masked client frame with FIN set. length is the raw
// length field: one 7-bit byte, or 126/127 followed by its extended
// bytes, so seeds can carry lengths the writer would never emit.
func wsFrame(opcode byte, length, payload []byte) []byte {
	mask := []byte{0x12, 0x34, 0x56, 0x78}
	b := append([]byte{0x80 | opcode, 0x80 | length[0]}, length[1:]...)
	b = append(b, mask...)
	for i, c := range payload {
		b = append(b, c^mask[i%4])
	}
	return b
}

// FuzzWSReadLoop feeds arbitrary client bytes to ReadLoop over an
// in-memory pipe. ReadLoop must never panic, and it must return once the
// input ends.
func FuzzWSReadLoop(f *testing.F) {
	ping := wsFrame(wsOpPing, []byte{2}, []byte("hi"))
	closeFrame := wsFrame(wsOpClose, []byte{2}, []byte{0x03, 0xE8})
	f.Add(ping)
	f.Add(closeFrame)
	f.Add(append(append(ping, ping...), closeFrame...))
	f.Add(wsFrame(wsOpText, []byte{126, 0, 200}, make([]byte, 200)))
	f.Add(wsFrame(wsOpText, []byte{127, 0, 0, 0, 0, 0, 0, 0, 5}, []byte("hello")))
	f.Add(wsFrame(wsOpPing, []byte{126, 0, 200}, make([]byte, 200)))
	f.Add(wsFrame(wsOpText, []byte{127, 0x80, 0, 0, 0, 0, 0, 0, 0}, nil))
	f.Add([]byte{0x80 | wsOpPing, 0}) // unmasked
	f.Fuzz(func(t *testing.T, in []byte) {
		srv, cli := net.Pipe()
		c := &WSConn{conn: srv, brw: bufio.NewReadWriter(bufio.NewReader(srv), bufio.NewWriter(srv))}
		var peer sync.WaitGroup
		peer.Add(2)
		go func() { // drain pong and close echoes
			defer peer.Done()
			io.Copy(io.Discard, cli)
		}()
		go func() {
			defer peer.Done()
			cli.Write(in)
			cli.Close() // the input ends
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.ReadLoop()
		}()
		timeout := time.NewTimer(10 * time.Second)
		defer timeout.Stop()
		select {
		case <-done:
		case <-timeout.C:
			t.Fatal("ReadLoop did not return after the input ended")
		}
		c.Close() // unblocks the writer if ReadLoop stopped reading early
		peer.Wait()
	})
}
