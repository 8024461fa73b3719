// Command acwal inspects a durability WAL directory written by
// acproxy -wal-dir (internal/durable). It is strictly read-only: no
// truncation, no compaction, safe to point at a crashed — or live —
// log.
//
// Usage:
//
//	acwal -dir DIR stat     # per-file summary: kind, size, records, torn tail
//	acwal -dir DIR verify   # full recovery dry-run; exit 1 on unrecoverable damage
//	acwal -dir DIR dump     # decode and print every record
//
// dump accepts -session NAME to filter append/session records and
// -sql to include the replayed query text.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/durable"
)

func main() {
	dir := flag.String("dir", "", "WAL directory (as given to acproxy -wal-dir)")
	session := flag.String("session", "", "dump: only records for this session")
	sql := flag.Bool("sql", false, "dump: include the SQL text of append records")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("acwal"))
		return
	}
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "stat"
	}
	if *dir == "" {
		log.Fatal("acwal: -dir is required")
	}
	var err error
	switch cmd {
	case "stat":
		err = stat(*dir)
	case "verify":
		err = verify(*dir)
	case "dump":
		err = dump(*dir, *session, *sql)
	default:
		log.Fatalf("acwal: unknown subcommand %q (want stat, verify, or dump)", cmd)
	}
	if err != nil {
		log.Fatalf("acwal: %v", err)
	}
}

// stat prints one line per WAL file in replay order.
func stat(dir string) error {
	var files, records int
	var bytes int64
	err := durable.Inspect(dir, func(fi durable.FileInfo) {
		files++
		records += fi.Records
		bytes += fi.Bytes
		line := fmt.Sprintf("%-20s %-10s %8d bytes %6d records", fi.Name, fi.Kind, fi.Bytes, fi.Records)
		if fi.Torn {
			line += fmt.Sprintf("  TORN TAIL (%d bytes)", fi.TornBytes)
		}
		if fi.Err != "" {
			line += "  ERROR: " + fi.Err
		}
		fmt.Println(line)
	}, nil)
	if err != nil {
		return err
	}
	if files == 0 {
		fmt.Println("empty WAL directory (no segments or checkpoints)")
		return nil
	}
	fmt.Printf("%d file(s), %d record(s), %d bytes\n", files, records, bytes)
	return nil
}

// verify runs the same recovery path the proxy uses at startup —
// against a copy of nothing: Recover is read-only except for tail
// truncation, which verify must not do, so it inspects first and only
// reports what recovery WOULD find.
func verify(dir string) error {
	damaged := false
	err := durable.Inspect(dir, func(fi durable.FileInfo) {
		switch {
		case fi.Err != "":
			damaged = true
			fmt.Printf("%-20s UNREADABLE: %s\n", fi.Name, fi.Err)
		case fi.Torn:
			fmt.Printf("%-20s torn tail: %d bytes past last intact record (recovery truncates this in the final segment)\n",
				fi.Name, fi.TornBytes)
		default:
			fmt.Printf("%-20s ok (%d records)\n", fi.Name, fi.Records)
		}
	}, func(rec durable.Record) {
		if rec.Err != "" {
			damaged = true
			fmt.Printf("%-20s record %d (%s): DECODE ERROR: %s\n", rec.File, rec.Seq, rec.Type, rec.Err)
		}
	})
	if err != nil {
		return err
	}
	if damaged {
		fmt.Println("verify: FAILED — intact framing with undecodable payloads, or unreadable files")
		os.Exit(1)
	}
	fmt.Println("verify: ok")
	return nil
}

// dump prints every decoded record in replay order.
func dump(dir, session string, withSQL bool) error {
	return durable.Inspect(dir, nil, func(rec durable.Record) {
		if session != "" && rec.Session != session {
			return
		}
		line := fmt.Sprintf("%-20s #%-5d %-15s", rec.File, rec.Seq, rec.Type)
		switch rec.Type {
		case "session":
			line += fmt.Sprintf(" %s", rec.Session)
			if rec.Detail != "" {
				line += " {" + rec.Detail + "}"
			}
		case "append":
			line += fmt.Sprintf(" %s[%d] rows=%d", rec.Session, rec.Index, rec.Rows)
			if rec.Detail != "" {
				line += " {" + rec.Detail + "}"
			}
			if withSQL {
				line += " " + rec.SQL
			}
		default:
			line += " " + rec.Detail
		}
		if rec.Err != "" {
			line += "  ERROR: " + rec.Err
		}
		fmt.Println(line)
	})
}
