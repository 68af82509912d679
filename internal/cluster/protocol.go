package cluster

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"

	"phttp/internal/core"
)

// Control protocol between front-end and back-ends, one TCP (or UNIX)
// stream per back-end, newline-framed text messages. The paper's control
// session carries handoff coordination, tagged requests and disk queue
// reports; ours carries:
//
//	FE -> BE:
//	  REQ <connID> <seq> <proto> <keep 0|1> <remote|-> <target>
//	  CLOSE <connID>
//	  RELAY <connID>            (open a relayed connection, no handoff fd)
//	BE -> FE:
//	  DISKQ <depth>             (periodic disk queue report)
//
// Targets contain no whitespace (URL paths), so space-separated fields are
// unambiguous; REQ places the target last so future extensions stay simple.
//
// Handed-off connections travel out of band: the front-end writes one byte
// carrying the connID length-prefixed header with the client socket's file
// descriptor attached as SCM_RIGHTS ancillary data on a per-back-end UNIX
// socket pair (see SendConnFD/RecvConnFD).

// ctrlMsg is a parsed control message.
type ctrlMsg struct {
	Kind   string // "REQ", "CLOSE", "RELAY", "DISKQ"
	Conn   core.ConnID
	Seq    int
	Proto  string
	Keep   bool
	Remote core.NodeID // NoNode when the request is served locally
	Target core.Target
	Depth  int // DISKQ
}

// appendReq appends a REQ message to dst.
func appendReq(dst []byte, id core.ConnID, seq int, proto string, keep bool, remote core.NodeID, target core.Target) []byte {
	dst = append(dst, "REQ "...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(seq), 10)
	dst = append(dst, ' ')
	dst = append(dst, proto...)
	if keep {
		dst = append(dst, " 1 "...)
	} else {
		dst = append(dst, " 0 "...)
	}
	if remote == core.NoNode {
		dst = append(dst, '-')
	} else {
		dst = strconv.AppendInt(dst, int64(remote), 10)
	}
	dst = append(dst, ' ')
	dst = append(dst, target...)
	return append(dst, '\n')
}

// formatReq renders a REQ message.
func formatReq(id core.ConnID, seq int, proto string, keep bool, remote core.NodeID, target core.Target) string {
	return string(appendReq(nil, id, seq, proto, keep, remote, target))
}

func formatClose(id core.ConnID) string { return fmt.Sprintf("CLOSE %d\n", id) }
func formatRelay(id core.ConnID) string { return fmt.Sprintf("RELAY %d\n", id) }
func formatDiskQ(depth int) string      { return fmt.Sprintf("DISKQ %d\n", depth) }

// parseCtrl parses one control line.
func parseCtrl(line string) (ctrlMsg, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return ctrlMsg{}, fmt.Errorf("cluster: empty control message")
	}
	m := ctrlMsg{Kind: fields[0], Remote: core.NoNode}
	bad := func() (ctrlMsg, error) {
		return ctrlMsg{}, fmt.Errorf("cluster: malformed control message %q", line)
	}
	switch m.Kind {
	case "REQ":
		if len(fields) != 7 {
			return bad()
		}
		id, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return bad()
		}
		m.Conn = core.ConnID(id)
		if m.Seq, err = strconv.Atoi(fields[2]); err != nil {
			return bad()
		}
		m.Proto = fields[3]
		m.Keep = fields[4] == "1"
		if fields[5] != "-" {
			r, err := strconv.Atoi(fields[5])
			if err != nil {
				return bad()
			}
			m.Remote = core.NodeID(r)
		}
		m.Target = core.Target(fields[6])
		return m, nil
	case "CLOSE", "RELAY":
		if len(fields) != 2 {
			return bad()
		}
		id, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return bad()
		}
		m.Conn = core.ConnID(id)
		return m, nil
	case "DISKQ":
		if len(fields) != 2 {
			return bad()
		}
		d, err := strconv.Atoi(fields[1])
		if err != nil {
			return bad()
		}
		m.Depth = d
		return m, nil
	default:
		return bad()
	}
}

// readCtrl reads and parses the next control message.
func readCtrl(br *bufio.Reader) (ctrlMsg, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return ctrlMsg{}, err
	}
	return parseCtrl(strings.TrimSpace(line))
}

// SendConnFD performs the handoff: it sends the client connection's file
// descriptor (with the connection ID as in-band data) to a back-end over
// the UNIX socket. The front-end retains its own descriptor for the
// connection — it keeps reading client requests through it — while the
// back-end gains a descriptor it writes responses to, so response data
// bypasses the front-end exactly as with the in-kernel handoff.
func SendConnFD(uc *net.UnixConn, id core.ConnID, f *os.File) error {
	oob := syscall.UnixRights(int(f.Fd()))
	buf := []byte(fmt.Sprintf("%020d", id))
	n, oobn, err := uc.WriteMsgUnix(buf, oob, nil)
	if err != nil {
		return fmt.Errorf("cluster: handoff send: %w", err)
	}
	if n != len(buf) || oobn != len(oob) {
		return fmt.Errorf("cluster: handoff send: short write (%d/%d data, %d/%d oob)", n, len(buf), oobn, len(oob))
	}
	return nil
}

// RecvConnFD receives one handed-off connection: the connection ID and a
// net.Conn wrapping the received descriptor.
func RecvConnFD(uc *net.UnixConn) (core.ConnID, net.Conn, error) {
	buf := make([]byte, 20)
	oob := make([]byte, syscall.CmsgSpace(4))
	n, oobn, _, _, err := uc.ReadMsgUnix(buf, oob)
	if err != nil {
		return 0, nil, err
	}
	if n != len(buf) {
		return 0, nil, fmt.Errorf("cluster: handoff recv: short header (%d bytes)", n)
	}
	id, err := strconv.ParseInt(strings.TrimLeft(string(buf), "0"), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: handoff recv: bad conn id %q", buf)
	}
	cmsgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
	if err != nil || len(cmsgs) == 0 {
		return 0, nil, fmt.Errorf("cluster: handoff recv: no control message (%v)", err)
	}
	fds, err := syscall.ParseUnixRights(&cmsgs[0])
	if err != nil || len(fds) != 1 {
		return 0, nil, fmt.Errorf("cluster: handoff recv: expected 1 fd (%v)", err)
	}
	f := os.NewFile(uintptr(fds[0]), fmt.Sprintf("handoff-conn-%d", id))
	conn, err := net.FileConn(f)
	f.Close() // FileConn dups; release our copy
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: handoff recv: %w", err)
	}
	return core.ConnID(id), conn, nil
}
