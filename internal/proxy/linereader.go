package proxy

import (
	"bufio"
	"errors"
	"io"
)

// errLineTooLong drops a connection whose request line exceeds the
// configured bound. The message keeps the "too long" phrasing clients
// and tests have matched since the bufio.Scanner-based read loop.
var errLineTooLong = errors.New("request line too long")

// lineReader yields newline-delimited request lines with a hard length
// bound, replacing the previous bufio.Scanner loop (whose token limit
// machinery copied long lines an extra time and could not interpose a
// pre-block flush). Semantics match bufio.ScanLines: the returned line
// excludes the terminator, a single trailing \r is stripped, and a
// final unterminated line before EOF is returned as a line (with the
// EOF surfaced on the next call).
//
// The returned slice aliases internal buffers and is valid only until
// the next ReadLine call — the same contract Scanner.Bytes had.
type lineReader struct {
	r   *bufio.Reader
	max int
	acc []byte // continuation scratch for lines spanning buffer fills
	err error  // deferred error after a final unterminated line
}

func newLineReader(r io.Reader, max int) *lineReader {
	size := 64 * 1024
	if max < size {
		size = max
	}
	if size < 16 {
		size = 16
	}
	return &lineReader{r: bufio.NewReaderSize(r, size), max: max}
}

// trimEOL strips one trailing \n and then one trailing \r.
func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// ReadLine returns the next request line. A nil error means a line; a
// returned error of io.EOF means the stream ended cleanly, anything
// else (including errLineTooLong) drops the connection.
func (lr *lineReader) ReadLine() ([]byte, error) {
	if lr.err != nil {
		return nil, lr.err
	}
	lr.acc = lr.acc[:0]
	for {
		frag, err := lr.r.ReadSlice('\n')
		switch err {
		case nil:
			if len(lr.acc)+len(frag)-1 > lr.max {
				return nil, errLineTooLong
			}
			if len(lr.acc) == 0 {
				return trimEOL(frag), nil
			}
			lr.acc = append(lr.acc, frag...)
			return trimEOL(lr.acc), nil
		case bufio.ErrBufferFull:
			if len(lr.acc)+len(frag) > lr.max {
				return nil, errLineTooLong
			}
			lr.acc = append(lr.acc, frag...)
		case io.EOF:
			if len(lr.acc)+len(frag) > 0 {
				lr.err = io.EOF
				lr.acc = append(lr.acc, frag...)
				return trimEOL(lr.acc), nil
			}
			return nil, io.EOF
		default:
			return nil, err
		}
	}
}
