package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/dist"
	"repro/internal/graph"
)

// Link is the coordinator's handle on one shard-host process. It
// implements dist.ShardLink over the framed protocol and dist.WireMeter
// by counting every frame byte in both directions. All methods are
// called from the single goroutine driving the coordinator, matching
// the ShardLink contract, so no locking is needed.
type Link struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	in, out int64
	shard   int
	closed  bool

	// Frame buffers: stepBuf holds the last stepResult frame, whose
	// blocks the coordinator relays after the link's next receive, so
	// it is reused only by the next StepResult; buf serves every other
	// reply. head is the scratch a binary frame's head is built in.
	stepBuf, buf, head []byte
}

func newLink(conn net.Conn) *Link {
	return &Link{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}
}

// Shard returns the shard index the peer announced in its hello.
func (l *Link) Shard() int { return l.shard }

// wrap labels err with the link's shard; nil stays nil.
func (l *Link) wrap(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("wire: shard %d: %w", l.shard, err)
}

// send writes one frame of head and blocks (see writeFrame).
func (l *Link) send(kind byte, head []byte, blocks [][]byte) error {
	n, err := writeFrame(l.bw, kind, head, blocks)
	l.out += int64(n)
	return l.wrap(err)
}

func (l *Link) sendGob(kind byte, body any) error {
	n, err := writeGobFrame(l.bw, kind, body)
	l.out += int64(n)
	return l.wrap(err)
}

// recv reads one frame of kind want into *buf and returns its body,
// which aliases *buf.
func (l *Link) recv(want byte, buf *[]byte) ([]byte, error) {
	kind, body, n, err := readFrame(l.br, buf)
	l.in += int64(n)
	if err != nil {
		return nil, l.wrap(err)
	}
	if kind != want {
		return nil, fmt.Errorf("wire: shard %d sent frame kind %d, want %d", l.shard, kind, want)
	}
	return body, nil
}

func (l *Link) recvGob(want byte, msg any) error {
	body, err := l.recv(want, &l.buf)
	if err != nil {
		return err
	}
	return l.wrap(decodeGob(body, msg))
}

// readHello awaits the child's hello frame.
func (l *Link) readHello() (int, error) {
	var h helloMsg
	if err := l.recvGob(kindHello, &h); err != nil {
		return 0, err
	}
	return h.Shard, nil
}

// beginSession ships a snapshot's CSR to the shard; awaitSession awaits
// the rebuild ack. Split so Cluster.Partition pipelines over shards.
func (l *Link) beginSession(ids []graph.ID, rowPtr, colIdx []int32) error {
	return l.sendGob(kindSession, sessionMsg{IDs: ids, RowPtr: rowPtr, ColIdx: colIdx})
}

func (l *Link) awaitSession() error {
	var ok okMsg
	if err := l.recvGob(kindSessionOK, &ok); err != nil {
		return err
	}
	if ok.Err != "" {
		return errors.New(ok.Err)
	}
	return nil
}

// Start implements dist.ShardLink.
func (l *Link) Start(cfg dist.ShardConfig) error {
	if err := l.sendGob(kindStart, startMsg{Cfg: cfg}); err != nil {
		return err
	}
	var ok okMsg
	if err := l.recvGob(kindStartOK, &ok); err != nil {
		return err
	}
	if ok.Err != "" {
		return errors.New(ok.Err)
	}
	return nil
}

// Step implements dist.ShardLink.
func (l *Link) Step(round int) error {
	l.head = appendStep(l.head[:0], round)
	return l.send(kindStep, l.head, nil)
}

// StepResult implements dist.ShardLink. The result's blocks alias the
// link's step buffer, which the next StepResult reuses.
func (l *Link) StepResult() (*dist.ShardStepResult, error) {
	body, err := l.recv(kindStepResult, &l.stepBuf)
	if err != nil {
		return nil, err
	}
	res, err := decodeStepResult(body)
	if err != nil {
		return nil, l.wrap(err)
	}
	return res, nil
}

// Deliver implements dist.ShardLink: the blocks are written to the
// socket as they are.
func (l *Link) Deliver(round int, blocks [][]byte) error {
	l.head = appendDeliver(l.head[:0], round, len(blocks))
	return l.send(kindDeliver, l.head, blocks)
}

// DeliverResult implements dist.ShardLink.
func (l *Link) DeliverResult() (int, error) {
	body, err := l.recv(kindDeliverOK, &l.buf)
	if err != nil {
		return 0, err
	}
	maxInbox, errText, err := decodeDeliverOK(body)
	if err != nil {
		return 0, l.wrap(err)
	}
	if errText != "" {
		return 0, errors.New(errText)
	}
	return maxInbox, nil
}

// Outputs implements dist.ShardLink. The outputs are read into a buffer
// of their own: a run's outputs are its largest frame, and a buffer
// kept for the next run would stay live in between.
func (l *Link) Outputs() ([][]byte, error) {
	if err := l.send(kindOutputs, nil, nil); err != nil {
		return nil, err
	}
	var buf []byte
	body, err := l.recv(kindOutputsData, &buf)
	if err != nil {
		return nil, err
	}
	data, errText, err := decodeOutputs(body)
	if err != nil {
		return nil, l.wrap(err)
	}
	if errText != "" {
		return nil, errors.New(errText)
	}
	return data, nil
}

// Close implements dist.ShardLink: a best-effort shutdown frame, then
// the connection drops. Idempotent.
func (l *Link) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	_ = l.send(kindShutdown, nil, nil)
	return l.conn.Close()
}

// WireBytes implements dist.WireMeter.
func (l *Link) WireBytes() (in, out int64) { return l.in, l.out }

// Dial/accept tuning. The schedule is fixed (no clock reads): attempt i
// sleeps i·dialBackoffStep before retrying, ~32s total across
// dialAttempts tries.
const (
	dialTimeout     = 2 * time.Second
	dialBackoffStep = 10 * time.Millisecond
	dialAttempts    = 80
	acceptTimeout   = 60 * time.Second
)

// DialRetry dials the coordinator with linear backoff, retrying
// transient failures: a shard host typically races the coordinator's
// listener coming up, and localhost dials also fail transiently under
// fork storms.
func DialRetry(addr string) (net.Conn, error) {
	var lastErr error
	for attempt := 1; attempt <= dialAttempts; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(time.Duration(attempt) * dialBackoffStep)
	}
	return nil, fmt.Errorf("wire: dialing coordinator %s: %w", addr, lastErr)
}

// SpawnFunc launches the shard-host child process for one shard. It
// must Start the process and return its handle; the cluster owns
// waiting and killing. addr is the coordinator's listen address the
// child must dial.
type SpawnFunc func(shard int, addr string) (*exec.Cmd, error)

// Cluster is a set of connected shard-host processes. Build one with
// StartCluster, then derive a dist.Partition per graph with Partition
// (re-sendable — multi-graph workloads push a fresh session each time),
// and Close when done.
type Cluster struct {
	ln    net.Listener
	links []*Link
	procs []*exec.Cmd
	parts int
}

// StartCluster listens on an ephemeral localhost port, spawns parts
// shard hosts, and accepts their hellos. The accept loop runs on the
// calling goroutine; a one-shot timer closes the listener if the fleet
// does not connect within acceptTimeout, surfacing as an accept error
// rather than a hang.
func StartCluster(parts int, spawn SpawnFunc) (*Cluster, error) {
	if parts < 1 {
		return nil, fmt.Errorf("wire: cluster needs at least 1 shard, got %d", parts)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wire: listening for shard hosts: %w", err)
	}
	c := &Cluster{ln: ln, parts: parts, links: make([]*Link, parts)}
	addr := ln.Addr().String()
	for s := 0; s < parts; s++ {
		cmd, err := spawn(s, addr)
		if err != nil {
			c.abort()
			return nil, fmt.Errorf("wire: spawning shard %d: %w", s, err)
		}
		if cmd != nil {
			c.procs = append(c.procs, cmd)
		}
	}
	timer := time.AfterFunc(acceptTimeout, func() { ln.Close() })
	defer timer.Stop()
	for i := 0; i < parts; i++ {
		conn, err := ln.Accept()
		if err != nil {
			c.abort()
			return nil, fmt.Errorf("wire: accepting shard hosts (%d of %d connected): %w", i, parts, err)
		}
		l := newLink(conn)
		shard, err := l.readHello()
		if err != nil {
			l.Close()
			c.abort()
			return nil, err
		}
		if shard < 0 || shard >= parts || c.links[shard] != nil {
			l.Close()
			c.abort()
			return nil, fmt.Errorf("wire: unexpected hello for shard %d (%d shards, duplicate=%v)",
				shard, parts, shard >= 0 && shard < parts && c.links[shard] != nil)
		}
		l.shard = shard
		c.links[shard] = l
	}
	ln.Close()
	c.ln = nil
	return c, nil
}

// Partition ships ix to every shard host and returns the partition for
// it. When ix has fewer nodes than the cluster has shards, only the
// first NumNodes links participate (the rest stay idle for this graph).
func (c *Cluster) Partition(ix *graph.Indexed) (*dist.Partition, error) {
	ids, rowPtr, colIdx := ix.CSR()
	ranges := dist.SplitRange(ix.NumNodes(), c.parts)
	for _, l := range c.links[:len(ranges)] {
		if err := l.beginSession(ids, rowPtr, colIdx); err != nil {
			return nil, err
		}
	}
	p := &dist.Partition{Ranges: ranges}
	for _, l := range c.links[:len(ranges)] {
		if err := l.awaitSession(); err != nil {
			return nil, err
		}
		p.Links = append(p.Links, l)
	}
	return p, nil
}

// Close shuts the fleet down gracefully: shutdown frames, connection
// teardown, then reaping every child. Children exit as soon as their
// connection drops, so the waits complete promptly.
func (c *Cluster) Close() error {
	var first error
	for _, l := range c.links {
		if l != nil {
			if err := l.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if c.ln != nil {
		c.ln.Close()
		c.ln = nil
	}
	for _, cmd := range c.procs {
		if err := cmd.Wait(); err != nil && first == nil {
			first = fmt.Errorf("wire: shard host exited: %w", err)
		}
	}
	c.procs = nil
	return first
}

// abort tears the fleet down on a startup failure: children may still
// be dialing (never connected), so they are killed rather than waited
// into their backoff schedule.
func (c *Cluster) abort() {
	for _, l := range c.links {
		if l != nil {
			l.Close()
		}
	}
	if c.ln != nil {
		c.ln.Close()
		c.ln = nil
	}
	for _, cmd := range c.procs {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	c.procs = nil
}

// Shard-host environment: when these are set, the process is a shard
// host child and must call MaybeShardHost before doing anything else.
const (
	envAddr  = "CHORDALD_SHARD_ADDR"
	envShard = "CHORDALD_SHARD_INDEX"
)

// SelfSpawn returns a SpawnFunc that re-executes the current binary as
// a shard host via environment variables. The binary must call
// MaybeShardHost at the top of main (before flag parsing), which
// hijacks the process when the variables are set.
func SelfSpawn() SpawnFunc {
	return func(shard int, addr string) (*exec.Cmd, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			envAddr+"="+addr,
			envShard+"="+strconv.Itoa(shard),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return cmd, nil
	}
}

// MaybeShardHost turns the process into a shard host when the spawn
// environment is set, serving until shutdown and exiting; it returns
// immediately (doing nothing) otherwise. Call it first thing in main.
func MaybeShardHost() {
	addr := os.Getenv(envAddr)
	if addr == "" {
		return
	}
	shard, err := strconv.Atoi(os.Getenv(envShard))
	if err != nil {
		fmt.Fprintf(os.Stderr, "wire: bad %s: %v\n", envShard, err)
		os.Exit(1)
	}
	if err := RunShard(addr, shard); err != nil {
		fmt.Fprintf(os.Stderr, "wire: shard %d: %v\n", shard, err)
		os.Exit(1)
	}
	os.Exit(0)
}
