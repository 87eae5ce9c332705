package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/dist"
	"repro/internal/graph"
)

// RunShard dials the coordinator at addr (with retry — the listener may
// not be up yet), announces the shard index, and serves the shard
// protocol until shutdown or disconnect. This is the entire life of a
// shard-host process; cmd/chordald-shard and MaybeShardHost are thin
// wrappers around it.
func RunShard(addr string, shard int) error {
	conn, err := DialRetry(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 1<<16)
	if _, err := writeGobFrame(bw, kindHello, helloMsg{Shard: shard}); err != nil {
		return err
	}
	return ServeConn(conn, bw)
}

// ServeConn runs the shard side of the protocol on an established
// connection: sessions swap in graph snapshots, starts build a
// dist.ShardRunner for the configured range, and step/deliver/outputs
// requests drive it. Everything runs on the calling goroutine — a shard
// host is single-threaded by design, the coordinator is its scheduler.
// A clean disconnect (EOF) is a normal shutdown.
func ServeConn(conn net.Conn, bw *bufio.Writer) error {
	br := bufio.NewReaderSize(conn, 1<<16)
	var ix *graph.Indexed
	var runner *dist.ShardRunner
	var buf, head []byte // the request frame buffer, and reply-head scratch
	errStr := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for {
		kind, body, _, err := readFrame(br, &buf)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch kind {
		case kindSession:
			var msg sessionMsg
			if err := decodeGob(body, &msg); err != nil {
				return err
			}
			six, serr := graph.NewIndexedFromCSR(msg.IDs, msg.RowPtr, msg.ColIdx)
			if serr == nil {
				ix = six
				runner = nil
			}
			_, err = writeGobFrame(bw, kindSessionOK, okMsg{Err: errStr(serr)})
		case kindStart:
			var msg startMsg
			if err := decodeGob(body, &msg); err != nil {
				return err
			}
			var serr error
			if ix == nil {
				serr = fmt.Errorf("wire: start before a session")
			} else {
				runner, serr = dist.NewShardRunner(ix, msg.Cfg)
			}
			_, err = writeGobFrame(bw, kindStartOK, okMsg{Err: errStr(serr)})
		case kindStep:
			round, derr := decodeStep(body)
			if derr != nil {
				return derr
			}
			if runner == nil {
				return fmt.Errorf("wire: step before a start")
			}
			res := runner.Step(round)
			head = appendStepResult(head[:0], res)
			_, err = writeFrame(bw, kindStepResult, head, res.Blocks)
		case kindDeliver:
			_, blocks, derr := decodeDeliver(body)
			if derr != nil {
				return derr
			}
			if runner == nil {
				return fmt.Errorf("wire: deliver before a start")
			}
			maxInbox, rerr := runner.Deliver(blocks)
			head = appendDeliverOK(head[:0], maxInbox, errStr(rerr))
			_, err = writeFrame(bw, kindDeliverOK, head, nil)
		case kindOutputs:
			if runner == nil {
				return fmt.Errorf("wire: outputs before a start")
			}
			data, oerr := runner.Outputs()
			head = appendOutputs(head[:0], errStr(oerr), len(data))
			_, err = writeFrame(bw, kindOutputsData, head, data)
		case kindShutdown:
			return nil
		default:
			return fmt.Errorf("wire: unexpected frame kind %d", kind)
		}
		if err != nil {
			return err
		}
	}
}
