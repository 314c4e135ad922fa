package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
)

// This file is the hop wire (DESIGN §10): a forward is one frame each way on a
// persistent stream upgraded from POST /cluster/hop on the peer's own
// listener. A frame is `u32 length | payload | u32 CRC-32 (IEEE, of both)`,
// little-endian — a ckpt journal record without the key — and a payload is
// `i64… | str… | u32 path vertex…`, a str being a u16 length and its bytes:
//
//	request  s, t, budget µs, depth | graph, request id, traceparent
//	reply    status, success, stuck, moves, forwards, hedges, failovers |
//	         failure (200) or error text | the continuation's path (200 only)

const (
	hopProto      = "smallworld-hop/1"
	maxHopRequest = 1 << 10 // request payload cap
	maxHopReply   = 8 << 20 // reply payload cap
)

var errHopFrame = errors.New("serve: malformed hop frame")

// readFrame reads one frame into *buf and returns its payload, a view into
// it. The buffer grows as bytes arrive, never from the claimed length. Any
// error (a length over limit, a checksum mismatch) means framing is lost:
// close the stream.
func readFrame(r io.Reader, buf *[]byte, limit int) ([]byte, error) {
	b := append((*buf)[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > limit {
		return nil, fmt.Errorf("serve: hop frame of %d bytes exceeds the %d-byte cap", n, limit)
	}
	for len(b) < n+8 {
		off := len(b)
		b = append(b, make([]byte, min(n+8-off, 64<<10))...)
		if _, err := io.ReadFull(r, b[off:]); err != nil {
			return nil, err
		}
	}
	if *buf = b; crc32.ChecksumIEEE(b[:n+4]) != binary.LittleEndian.Uint32(b[n+4:]) {
		return nil, errors.New("serve: hop frame checksum mismatch")
	}
	return b[4 : n+4], nil
}

// appendFrame encodes one frame into b[:0].
func appendFrame(b []byte, ints []int64, strs []string, path []int) []byte {
	b = append(b[:0], 0, 0, 0, 0)
	for _, v := range ints {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, s := range strs {
		b = append(binary.LittleEndian.AppendUint16(b, uint16(len(s))), s...)
	}
	for _, v := range path {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeFrame fills ints and strs from a payload and returns the rest, the
// still encoded path.
func decodeFrame(p []byte, ints []int64, strs []string) ([]byte, error) {
	for i := range ints {
		if len(p) < 8 {
			return nil, errHopFrame
		}
		ints[i], p = int64(binary.LittleEndian.Uint64(p)), p[8:]
	}
	for i := range strs {
		if len(p) < 2 || len(p) < 2+int(binary.LittleEndian.Uint16(p)) {
			return nil, errHopFrame
		}
		n := 2 + int(binary.LittleEndian.Uint16(p))
		strs[i], p = string(p[2:n]), p[n:]
	}
	if len(p)%4 != 0 {
		return nil, errHopFrame
	}
	return p, nil
}

// budgetMicros rounds a positive remaining budget up to whole µs, so that it
// never travels as 0, which reads "no deadline".
func budgetMicros(d time.Duration) int64 {
	return int64((d + time.Microsecond - 1) / time.Microsecond)
}

// appendHopRequest encodes a request frame. The budget rides in µs;
// req.DeadlineMs is the JSON contract's field and is not encoded.
func appendHopRequest(b []byte, req HopRequest, budgetUs int64, rid, tp string) []byte {
	return appendFrame(b, []int64{int64(req.S), int64(req.T), budgetUs, int64(req.Depth)}, []string{req.Graph, rid, tp}, nil)
}

func decodeHopRequest(p []byte) (req HopRequest, budgetUs int64, rid, tp string, err error) {
	var ints [4]int64
	var strs [3]string
	if rest, err := decodeFrame(p, ints[:], strs[:]); err != nil || len(rest) != 0 {
		return req, 0, "", "", errHopFrame
	}
	return HopRequest{Graph: strs[0], S: int(ints[0]), T: int(ints[1]), Depth: int(ints[3])}, ints[2], strs[1], strs[2], nil
}

// appendHopReply encodes a reply frame: for 200 the classified continuation,
// straight from resp.Path; otherwise the error text.
func appendHopReply(b []byte, status int, resp *HopResponse, msg string) []byte {
	if status != http.StatusOK {
		return appendFrame(b, []int64{int64(status), 0, 0, 0, 0, 0, 0}, []string{msg}, nil)
	}
	var ok int64
	if resp.Success {
		ok = 1
	}
	return appendFrame(b, []int64{int64(status), ok, int64(resp.Stuck), int64(resp.Moves), int64(resp.Forwards),
		int64(resp.Hedges), int64(resp.Failovers)}, []string{resp.Failure}, resp.Path)
}

// decodeHopReply decodes a reply payload.
func decodeHopReply(p []byte) (resp HopResponse, status int, msg string, err error) {
	var ints [7]int64
	var strs [1]string
	p, err = decodeFrame(p, ints[:], strs[:])
	status = int(ints[0])
	switch {
	case err != nil:
		return resp, 0, "", err
	case status != http.StatusOK && ints == [7]int64{ints[0]} && len(p) == 0:
		return resp, status, strs[0], nil
	case status != http.StatusOK || uint64(ints[1]) > 1 || len(p) == 0:
		return resp, 0, "", errHopFrame
	}
	path := make([]int, 0, len(p)/4)
	for ; len(p) > 0; p = p[4:] {
		path = append(path, int(binary.LittleEndian.Uint32(p)))
	}
	return HopResponse{Success: ints[1] == 1, Failure: strs[0], Stuck: int(ints[2]), Path: path, Moves: int(ints[3]),
		Forwards: int(ints[4]), Hedges: int(ints[5]), Failovers: int(ints[6])}, status, "", nil
}

// hopStream is one dialled stream and the one buffer a round trip builds its
// request in and then reads the reply into.
type hopStream struct {
	conn  net.Conn
	br    *bufio.Reader
	buf   []byte
	fresh bool // not upgraded yet
}

// hopRPC is one hop round trip to peer, bounded by deadline and ctx. It takes
// an idle stream off the peer's stack, or dials one, and owns it until the
// reply is decoded: streams are exclusive, so there is no head-of-line
// blocking and two shards forwarding into each other cannot deadlock. A reused
// stream that dies before any reply byte is a stale connection (the peer
// restarted), not a peer failure: retry once on a fresh dial, as
// http.Transport does for idempotent requests.
func (s *Server) hopRPC(ctx context.Context, peer string, req HopRequest, deadline time.Time, tp string) (resp HopResponse, status int, err error) {
	for redial := false; ; redial = true {
		var st *hopStream
		s.hopMu.Lock()
		if idle := s.hopIdle[peer]; len(idle) > 0 && !redial {
			st, s.hopIdle[peer] = idle[len(idle)-1], idle[:len(idle)-1]
		}
		s.hopMu.Unlock()
		reused := st != nil
		if !reused {
			d := net.Dialer{Deadline: deadline}
			conn, err := d.DialContext(ctx, "tcp", peer)
			if err != nil {
				return resp, 0, err
			}
			st = &hopStream{conn: conn, br: bufio.NewReaderSize(conn, 512), fresh: true}
			s.hopStreamsOut.Add(1)
		}
		var started bool
		resp, status, started, err = st.roundTrip(ctx, peer, req, deadline, tp)
		s.hopMu.Lock()
		keep := err == nil && !s.hopClosed && len(s.hopIdle[peer]) < s.cfg.Workers
		if keep {
			s.hopIdle[peer] = append(s.hopIdle[peer], st)
		}
		s.hopMu.Unlock()
		if !keep {
			s.dropHopStream(st)
		}
		if err == nil || !reused || started || ctx.Err() != nil || time.Until(deadline) <= 0 {
			return resp, status, err
		}
		s.hopRedials.Add(1)
	}
}

func (s *Server) dropHopStream(st *hopStream) {
	st.conn.Close()
	s.hopStreamsOut.Add(-1)
}

// roundTrip sends one request frame and reads its reply, upgrading the
// connection first when it is fresh. started reports whether any reply byte
// arrived. A budget that ran out never leaves the sender.
func (st *hopStream) roundTrip(ctx context.Context, peer string, req HopRequest, deadline time.Time, tp string) (resp HopResponse, status int, started bool, err error) {
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return resp, 0, false, context.DeadlineExceeded
	}
	st.buf = appendHopRequest(st.buf, req, budgetMicros(remaining), obs.RequestID(ctx), tp)
	st.conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { st.conn.Close() })
	defer func() {
		if !stop() && err == nil {
			err = context.Cause(ctx) // the client left and the stream was closed under us
		}
	}()
	if st.fresh {
		if _, err = fmt.Fprintf(st.conn, "POST /cluster/hop HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\nContent-Length: 0\r\n\r\n", peer, hopProto); err != nil {
			return resp, 0, false, err
		}
		hresp, err := http.ReadResponse(st.br, nil)
		if err == nil && (hresp.StatusCode != http.StatusSwitchingProtocols || hresp.Header.Get("Upgrade") != hopProto) {
			err = fmt.Errorf("serve: hop upgrade refused: %s", hresp.Status)
		}
		if err != nil {
			return resp, 0, false, err
		}
		st.fresh = false
	}
	if _, err = st.conn.Write(st.buf); err != nil {
		return resp, 0, false, err
	}
	if _, err = st.br.Peek(1); err != nil {
		return resp, 0, false, err
	}
	p, err := readFrame(st.br, &st.buf, maxHopReply)
	if err != nil {
		return resp, 0, true, err
	}
	resp, status, _, err = decodeHopReply(p)
	return resp, status, true, err
}

// hopCall is one request frame, decoded, on its way from a stream's reader to
// the goroutine that answers it.
type hopCall struct {
	req      HopRequest
	budgetUs int64
	rid, tp  string
	err      error
}

// serveHopStream is the stream front-end of serveHop: it takes the upgraded
// connection over from the HTTP server and answers frames on its goroutine,
// each reply encoded straight from the episode's result. A well-framed payload
// that does not decode is answered 400 and the stream stays usable; lost
// framing ends it. Shutdown does not see a hijacked connection, so a
// *http.Server's first upgrade registers Close with it.
//
// Frames are read by a second goroutine, which is therefore blocked in the
// next read while a hop is served: a sender that hangs up mid-hop — its client
// left, its hedge lost the race — cancels the hop and everything it forwarded
// onward at once, as the closed connection of an HTTP request does, instead of
// the chain running on for the rest of the budget.
func (s *Server) serveHopStream(w http.ResponseWriter, r *http.Request) {
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		writeError(w, http.StatusNotImplemented, 0, "hop streams unsupported: %v", err)
		return
	}
	defer conn.Close()
	if hs, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok {
		if _, seen := s.hopServers.LoadOrStore(hs, true); !seen {
			hs.RegisterOnShutdown(s.Close)
		}
	}
	s.hopMu.Lock()
	s.hopIn[conn] = struct{}{}
	closed := s.hopClosed
	s.hopMu.Unlock()
	defer func() {
		s.hopMu.Lock()
		delete(s.hopIn, conn)
		s.hopMu.Unlock()
	}()
	if closed {
		return
	}
	conn.SetDeadline(time.Time{}) // the HTTP server's read deadline does not apply to a stream
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+hopProto+"\r\n\r\n"); err != nil {
		return
	}
	sctx, hangUp := context.WithCancel(r.Context())
	defer hangUp()
	calls := make(chan hopCall)
	go func() {
		defer hangUp()
		var buf []byte
		for {
			p, err := readFrame(brw.Reader, &buf, maxHopRequest)
			if err != nil {
				return
			}
			var c hopCall
			c.req, c.budgetUs, c.rid, c.tp, c.err = decodeHopRequest(p)
			select {
			case calls <- c:
			case <-sctx.Done():
				return
			}
		}
	}()
	var buf []byte
	for {
		var c hopCall
		select {
		case c = <-calls:
		case <-sctx.Done():
			return
		}
		var resp HopResponse
		status, msg := http.StatusBadRequest, "bad hop frame"
		es := episodePool.Get().(*episodeState)
		if c.err == nil {
			ctx, _ := s.requestScope(sctx, c.rid)
			resp, status, msg = s.serveHop(ctx, c.req, time.Duration(c.budgetUs)*time.Microsecond, c.tp, es)
		}
		buf = appendHopReply(buf, status, &resp, msg)
		episodePool.Put(es)
		if _, err := conn.Write(buf); err != nil {
			return
		}
	}
}

// Close severs every hop stream this server accepted and every idle stream
// it dialled, for good: later upgrades are hung up on, later forwards dial a
// stream each. http.Server.Shutdown calls it (see serveHopStream).
func (s *Server) Close() {
	s.hopMu.Lock()
	defer s.hopMu.Unlock()
	s.hopClosed = true
	for conn := range s.hopIn {
		conn.Close()
	}
	for peer, idle := range s.hopIdle {
		for _, st := range idle {
			s.dropHopStream(st)
		}
		delete(s.hopIdle, peer)
	}
}
