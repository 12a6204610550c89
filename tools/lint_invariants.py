#!/usr/bin/env python3
"""Project-specific contract lints (CI gate; see README "Correctness tooling").

Checks enforced:

1. relaxed-justification: every use of std::memory_order_relaxed in src/
   must carry a justification comment containing "relaxed:".  The comment
   may sit on the use line itself, or above the *run* of consecutive
   relaxed-using lines it covers (a contiguous block of relaxed telemetry
   loads needs one comment, not twenty).  "Above" means within
   LOOKBACK_LINES lines of the top of the run, so multi-line statements
   and short comment blocks both work.

2. codec-narrowing: every encoder in src/net/codec.h that narrows a batch
   size into the frame's u32 key_count (`static_cast<uint32_t>(<x>.size())`)
   must call detail::check_batch_size() earlier in the same function, so an
   oversized batch throws net::batch_too_large instead of silently
   truncating the count while the payload disagrees.

3. mailbox-ownership: every cross-reactor mailbox operation in src/ — a
   push into a reactor's inbox slot or a try_pop drain — must carry a
   "lane:" ownership comment (same line or above, like the relaxed rule)
   naming which thread is the single producer / single consumer of that
   SPSC ring.  The mailboxes are lock-free only under that ownership
   discipline, so every site states whose lane it runs on.

4. one-frame-path: no reactor-count comparison against one in src/net/ —
   `nr_` (or `reactors_.size()`) compared with 1 by any operator, or with 2
   by `<` / `>=` (the same test spelled differently).  Every frame takes
   the reactor path at any N; a one-reactor branch is how the duplicated
   single-loop server grew.  The only sanctioned sites keep the
   one-reactor metrics schema, and each carries an "exposition:" comment
   (same line or above, like the relaxed rule).

5. one-bit-primitive-home: no `std::popcount`, `__builtin_popcount*`,
   `_pdep_u64` or `__BMI2__` in src/ outside util/bits.h.  The default build
   sets no -march, so how a bit primitive reaches the hardware (a libgcc
   call, or PDEP chosen at run time from the CPU) is decided in that one
   header; a direct use elsewhere silently bypasses the choice.  Comments
   are not checked.

6. one-replication-log: in src/net/, only replay_ring.cpp calls the
   durability engine's append / covers / encode_from, and the server holds
   exactly one replay_ring (server.h's log), never one per reactor.  The
   log is the replication stream's only record: it writes the WAL before
   its memory window, and it alone decides which tier serves a resume.  A
   second caller or ring would be a second answer to "frames after X"
   that can disagree with the first.  The engine is found
   through the `durability` config field and any name declared as a
   durability_engine pointer or reference in the same file.  Comments are
   not checked.

Exit status: 0 clean, 1 violations (printed one per line as
file:line: message).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LOOKBACK_LINES = 4

RELAXED_RE = re.compile(r"memory_order_relaxed")
JUSTIFIED_RE = re.compile(r"relaxed:")
NARROW_RE = re.compile(r"key_count\s*=\s*static_cast<uint32_t>\([^)]*\.size\(\)\)")
CHECK_RE = re.compile(r"check_batch_size\s*\(")
# Mailbox call sites: a push into some reactor's inbox slot, or any
# try_pop drain.  Function *definitions* (bool try_pop(...), void
# push(...)) are excluded — the rule covers operations, not signatures.
MAILBOX_OP_RE = re.compile(r"inbox\w*\s*\[[^\]]*\]\s*->\s*push\s*\(|\btry_pop\s*\(")
MAILBOX_DEFN_RE = re.compile(r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:bool|void)\s+\w+\s*\(")
LANE_RE = re.compile(r"lane:")
_COUNT = r"(?:\bnr_\b|\breactors_\.size\(\))"
_CMP = r"(?:==|!=|<=|>=|<|>)"
REACTOR_COUNT_RE = re.compile(
    rf"{_COUNT}\s*{_CMP}\s*1\b|\b1\s*{_CMP}\s*{_COUNT}"
    rf"|{_COUNT}\s*(?:<|>=)\s*2\b|\b2\s*(?:>|<=)\s*{_COUNT}")
EXPOSITION_RE = re.compile(r"exposition:")
BIT_PRIMITIVE_RE = re.compile(
    r"std::popcount\b|__builtin_popcount\w*|\b_pdep_u64\b|\b__BMI2__\b")
BIT_PRIMITIVE_HOME = REPO / "src" / "util" / "bits.h"
LOG_HOME = REPO / "src" / "net" / "replay_ring.cpp"
ENGINE_DECL_RE = re.compile(r"durability_engine\s*[*&]\s*(\w+)")
ENGINE_CALL = r"\s*(?:->|\.)\s*(?:append|covers|encode_from)\s*\("
# A replay_ring object: `replay_ring name;`/`(`/`{`/`=`, or a container of
# them (`vector<replay_ring>`, `unique_ptr<replay_ring>`, ...).
RING_DECL_RE = re.compile(r"\breplay_ring\s*>|\breplay_ring\s+\w+\s*[;({=]")
SERVER_FILES = (REPO / "src" / "net" / "server.h",
                REPO / "src" / "net" / "server.cpp")
# A new function starts at an unindented definition line ("inline ...",
# "class ...", templates, etc.) — good enough to scope the codec check.
FUNC_START_RE = re.compile(r"^[a-zA-Z/]")


def check_relaxed(path: Path, lines: list[str], errors: list[str]) -> None:
    uses = [i for i, line in enumerate(lines) if RELAXED_RE.search(line)]
    use_set = set(uses)
    for i in uses:
        if JUSTIFIED_RE.search(lines[i]):
            continue
        # Walk to the top of the contiguous run of relaxed-using lines.
        top = i
        while top - 1 in use_set and not JUSTIFIED_RE.search(lines[top - 1]):
            top -= 1
        window = lines[max(0, top - LOOKBACK_LINES):top]
        if any(JUSTIFIED_RE.search(w) for w in window):
            continue
        errors.append(
            f"{path.relative_to(REPO)}:{i + 1}: memory_order_relaxed without "
            f'a "relaxed:" justification comment (same line or above the run)'
        )


def check_mailbox_ownership(path: Path, lines: list[str],
                            errors: list[str]) -> None:
    for i, line in enumerate(lines):
        if not MAILBOX_OP_RE.search(line) or MAILBOX_DEFN_RE.match(line):
            continue
        if LANE_RE.search(line):
            continue
        window = lines[max(0, i - LOOKBACK_LINES):i]
        if any(LANE_RE.search(w) for w in window):
            continue
        errors.append(
            f"{path.relative_to(REPO)}:{i + 1}: mailbox push/pop without a "
            f'"lane:" ownership comment (same line or above) naming the '
            f"single producer/consumer"
        )


def check_one_frame_path(path: Path, lines: list[str],
                         errors: list[str]) -> None:
    for i, line in enumerate(lines):
        if not REACTOR_COUNT_RE.search(line.split("//", 1)[0]):
            continue
        window = lines[max(0, i - LOOKBACK_LINES):i + 1]
        if any(EXPOSITION_RE.search(w) for w in window):
            continue
        errors.append(
            f"{path.relative_to(REPO)}:{i + 1}: reactor-count comparison "
            f"against one outside an \"exposition:\"-tagged site (one frame "
            f"path serves every reactor count)"
        )


def check_bit_primitive_home(path: Path, lines: list[str],
                             errors: list[str]) -> None:
    if path == BIT_PRIMITIVE_HOME:
        return
    for i, line in enumerate(lines):
        m = BIT_PRIMITIVE_RE.search(line.split("//", 1)[0])
        if m:
            errors.append(
                f"{path.relative_to(REPO)}:{i + 1}: {m.group(0)} outside "
                f"util/bits.h (use the util:: primitive, whose path is "
                f"chosen there)"
            )


def check_one_log_caller(path: Path, lines: list[str],
                         errors: list[str]) -> None:
    if path == LOG_HOME:
        return
    code = [line.split("//", 1)[0] for line in lines]
    names = {"durability"}
    for line in code:
        names.update(ENGINE_DECL_RE.findall(line))
    call_re = re.compile(rf"\b(?:{'|'.join(sorted(names))})\b{ENGINE_CALL}")
    for i, line in enumerate(code):
        if call_re.search(line):
            errors.append(
                f"{path.relative_to(REPO)}:{i + 1}: durability engine "
                f"append/covers/encode_from outside replay_ring.cpp (the "
                f"replay log is the stream's one record; go through it)"
            )


def check_one_server_ring(errors: list[str]) -> None:
    seen = 0
    for path in SERVER_FILES:
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if not RING_DECL_RE.search(line.split("//", 1)[0]):
                continue
            seen += 1
            if path.suffix == ".cpp" or seen > 1:
                errors.append(
                    f"{path.relative_to(REPO)}:{i + 1}: replay_ring besides "
                    f"server.h's log_ (the server holds one log with one "
                    f"window per lane, not one ring per reactor)"
                )


def check_codec_narrowing(path: Path, lines: list[str],
                          errors: list[str]) -> None:
    func_start = 0
    for i, line in enumerate(lines):
        if FUNC_START_RE.match(line):
            func_start = i
        if NARROW_RE.search(line):
            body = lines[func_start:i]
            if not any(CHECK_RE.search(b) for b in body):
                errors.append(
                    f"{path.relative_to(REPO)}:{i + 1}: key_count narrowing "
                    f"without a preceding check_batch_size() in the same "
                    f"encoder (must throw net::batch_too_large)"
                )


def main() -> int:
    errors: list[str] = []

    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in {".h", ".cpp"}:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        check_relaxed(path, lines, errors)
        check_mailbox_ownership(path, lines, errors)
        check_bit_primitive_home(path, lines, errors)
        if path.parent == REPO / "src" / "net":
            check_one_frame_path(path, lines, errors)
            check_one_log_caller(path, lines, errors)
    check_one_server_ring(errors)

    codec = REPO / "src" / "net" / "codec.h"
    check_codec_narrowing(codec, codec.read_text(encoding="utf-8").splitlines(),
                          errors)

    if errors:
        print(f"lint_invariants: {len(errors)} violation(s)")
        for e in errors:
            print(e)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
