"""Value-change-dump emission and ingestion.

The writer lays each clock cycle out over two timestamps (posedge at #2k,
falling edge at #2k+1) and dumps signal values coincident with the posedge,
so a loader sampling at rising clock edges recovers the exact per-cycle
values. Bundle metadata (start cycle, seed id) rides in a $comment so a
round trip reproduces the bundle bit for bit. The bundle's runs are the
dump's value changes: each run start is one timestamp of changes, and the
cycles inside a run are quiet, only clock lines. `_quiet_chunks` formats a
quiet stretch in chunks of at most _QUIET_CHUNK cycles; the writer emits
its text piece by piece, so `save_vcd` streams a long hold to its file.

The loader accepts the IEEE-1364 subset named in the docs: $timescale,
$scope module, $var wire/reg, $enddefinitions, #time stamps, scalar and
b-vector changes. x/z bits map to 0 and are counted per signal. It first
recognises the body's quiet stretches: text equal, byte for byte, to what
`_quiet_chunks` gives from the stretch's first timestamp on, compared in
place chunk by chunk. The rest is cut at its timestamp lines into blocks,
and each distinct block is decoded once, line by line. If that rest has a
bad line or timestamp, or a time that would sort into or before a
stretch, the whole body is cut at every timestamp instead, so results
and errors are those of cutting it everywhere. Each time step
becomes a few characters of one string, and a stretch of k quiet cycles
is its two clock steps' characters k times over; the posedges between two
value changes are counted with str.count and extend the current run,
instead of being replayed line by line.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterator
from itertools import chain, compress, repeat
from operator import eq
from pathlib import Path

from .design import DesignHierarchy
from .errors import ClockNotFound, UnknownScope, VcdParseError
from .parser import CLOCK_NAME
from .simulator import TraceBundle

_ID_ALPHABET = [chr(c) for c in range(33, 127)]


def _id_code(n: int) -> str:
    chars = []
    while True:
        chars.append(_ID_ALPHABET[n % 94])
        n //= 94
        if n == 0:
            break
    return "".join(chars)


# The most cycles one chunk of quiet text holds. A stretch's chunks double
# in size up to it, so a short stretch costs little to write or recognise
# and a long one is never held whole.
_QUIET_CHUNK = 1024


def _quiet_chunks(first: int, stop: int, clk: str | None) -> Iterator[tuple[int, str]]:
    """The text of cycles first..stop-1 when none of them changes a value,
    as (cycles, text) chunks: the first of one cycle, each later one twice
    the one before, up to _QUIET_CHUNK cycles."""
    # The lines after a cycle's timestamps: #2c, and #2c+1 with a clock.
    after = ("\n",) if clk is None else (f"\n1{clk}\n", f"\n0{clk}\n")
    step = 2 // len(after)
    # Cycles 5q..5q+4 take the timestamps 10q+d, so for q > 0 their text is
    # str(q) joined by these parts, each ending before a last digit d.
    parts = ["#", *(f"{d}{after[d % len(after)]}#" for d in range(0, 10, step))]
    parts[-1] = parts[-1][:-1]

    def stamped(lo: int, hi: int) -> str:
        return "".join([f"#{t}{after[t % len(after)]}" for t in range(2 * lo, 2 * hi, step)])

    size = 1
    while first < stop:
        end = min(first + size, stop)
        # Cycles a..b-1 are whole fives from 5 on, one join per five; the
        # few cycles before and after them are stamped one by one.
        a = min(end, max(5, -(-first // 5) * 5))
        b = max(a, end // 5 * 5)
        fives = "".join(map(str.join, map(str, range(a // 5, b // 5)), repeat(parts)))
        yield end - first, stamped(first, a) + fives + stamped(b, end)
        first = end
        size = min(2 * size, _QUIET_CHUNK)


def write_vcd(bundle: TraceBundle) -> str:
    """Serialize a trace bundle; inverse of load_vcd for our own output."""
    return "".join(_vcd_pieces(bundle))


def save_vcd(bundle: TraceBundle, path: str | Path) -> None:
    """write_vcd into a file, piece by piece as the text is made."""
    with Path(path).open("w") as f:
        f.writelines(_vcd_pieces(bundle))


def _vcd_pieces(bundle: TraceBundle) -> Iterator[str]:
    """The text of write_vcd in pieces, each ending with a line break."""
    paths = bundle.instances()
    # Assign one id per (instance, signal); give the top clock its own
    # toggling waveform so the output is replayable by edge-sampling tools.
    var_ids: dict[tuple[str, str], str] = {}
    counter = 0
    for path in paths:
        for name in bundle.signal_names(path):
            var_ids[(path, name)] = _id_code(counter)
            counter += 1

    out: list[str] = []
    out.append("$timescale 1ns $end")
    out.append(
        f"$comment leakscope start_cycle={bundle.start_cycle} "
        f"seed_id={bundle.seed_id} $end"
    )

    # Scope tree from dotted instance paths, children in instance order,
    # walked depth-first with an explicit stack; None closes a scope.
    roots: list[str] = []
    children: dict[str, list[str]] = {}
    for path in paths:
        if "." in path:
            children.setdefault(path.rpartition(".")[0], []).append(path)
        else:
            roots.append(path)
    stack: list[str | None] = roots[::-1]
    while stack:
        path = stack.pop()
        if path is None:
            out.append("$upscope $end")
            continue
        out.append(f"$scope module {path.rpartition('.')[2]} $end")
        for name, width in zip(bundle.signal_names(path), bundle.signal_widths(path)):
            out.append(f"$var wire {width} {var_ids[(path, name)]} {name} $end")
        stack.append(None)
        stack += reversed(children.get(path, ()))
    out.append("$enddefinitions $end")

    top = roots[0] if roots else None
    clk_id = None
    if top is not None and CLOCK_NAME in bundle.signal_names(top):
        clk_id = var_ids[(top, CLOCK_NAME)]

    # Every dumped signal with its (id, width), in declaration order.
    signals: list[tuple[str, str]] = []
    dumped: list[tuple[str, int]] = []
    for path in paths:
        for name, width in zip(bundle.signal_names(path), bundle.signal_widths(path)):
            if (path, name) != (top, CLOCK_NAME):
                signals.append((path, name))
                dumped.append((var_ids[(path, name)], width))

    def value_change(code: str, width: int, value: int) -> str:
        if width == 1:
            return f"{value}{code}"
        return f"b{value:b} {code}"

    def quiet(first: int, stop: int) -> Iterator[str]:
        """The lines so far, then the quiet cycles first..stop-1."""
        if stop > first:
            yield "\n".join(out) + "\n"
            out.clear()
            for _, chunk in _quiet_chunks(first, stop, clk_id):
                yield chunk

    following = 0
    for cycle, changes in bundle.value_changes(signals):
        yield from quiet(following, cycle)
        out.append(f"#{2 * cycle}")
        if cycle == 0:
            out.append("$dumpvars")
        out.extend(value_change(*dumped[k], value) for k, value in changes)
        if clk_id is not None:
            out.append(f"1{clk_id}")
        if cycle == 0:
            out.append("$end")
        if clk_id is not None:
            out.append(f"#{2 * cycle + 1}")
            out.append(f"0{clk_id}")
        following = cycle + 1
    yield from quiet(following, bundle.cycles)
    if out:
        yield "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

# Widest vector a $var may declare: IEEE 1364 lets tools cap vector length,
# at no less than 2**16 bits.
MAX_VCD_WIDTH = 1 << 16

# The line breaks of str.splitlines() other than "\n" and "\r\n".
_LINE_BREAKS = str.maketrans(dict.fromkeys("\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", "\n"))


def _unify_line_breaks(text: str) -> str:
    """The text with every line break str.splitlines() knows made "\n", in
    one copy of the text, not one string per line."""
    if not text.isascii() or any(map(text.__contains__, "\r\v\f\x1c\x1d\x1e")):
        text = text.replace("\r\n", "\n").translate(_LINE_BREAKS)
    return text


# The line that ends the header.
_END_DEFS = re.compile(r"^[^\S\n]*\$enddefinitions[^\n]*", re.M)
# A timestamp line with the line break before it; re.split keeps the time.
_TIMESTAMP = re.compile(r"\n[^\S\n]*#([^\n]*)")
_SKIPPED = ("$dumpvars", "$end", "$dumpall", "$dumpon", "$dumpoff")
_XZ_TO_0 = str.maketrans("xXzZ", "0000")
# Enclose the number of a step with value changes in the step string.
_SETS_MARK, _SETS_END = "\x00", "\x01"


def _read_header(
    lines: list[str],
) -> tuple[dict[str, list[tuple[str, str, int, int]]], int, str]:
    """The declarations: each value id, in order of first declaration, with
    its (scope, name, width, line) vars; then the start cycle and seed id."""
    vars_by_code: dict[str, list[tuple[str, str, int, int]]] = {}
    start_cycle = 0
    seed_id = "vcd"
    scope_stack: list[str] = []
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if line.startswith("$scope"):
            parts = line.split()
            if len(parts) < 3 or parts[1] != "module":
                raise VcdParseError(lineno, f"unsupported scope: {line!r}")
            scope_stack.append(parts[2])
        elif line.startswith("$upscope"):
            if not scope_stack:
                raise VcdParseError(lineno, "unbalanced $upscope")
            scope_stack.pop()
        elif line.startswith("$var"):
            parts = line.split()
            if len(parts) < 5:
                raise VcdParseError(lineno, f"malformed $var: {line!r}")
            if parts[1] not in ("wire", "reg"):
                raise VcdParseError(lineno, f"unsupported var type {parts[1]!r}")
            try:
                width = int(parts[2])
            except ValueError:
                raise VcdParseError(lineno, f"bad width in {line!r}")
            if not 1 <= width <= MAX_VCD_WIDTH:
                raise VcdParseError(lineno, f"width out of range in {line!r}")
            vars_by_code.setdefault(parts[3], []).append(
                (".".join(scope_stack), parts[4], width, lineno)
            )
        elif line.startswith("$comment"):
            for field in line.split():
                if field.startswith("start_cycle="):
                    try:
                        start_cycle = int(field.split("=", 1)[1])
                    except ValueError:
                        raise VcdParseError(lineno, f"bad start cycle {field!r}")
                elif field.startswith("seed_id="):
                    seed_id = field.split("=", 1)[1]
    return vars_by_code, start_cycle, seed_id


class _BadLine(Exception):
    """A bad line of a block, `offset` lines into it."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        self.message = message


class _Block:
    """The value changes of the lines of one time, decoded once per
    distinct text: `sets` the (id index, value) changes of ids other than
    the clock, `clock` the clock's values in order, and `xz` the id index of
    each change that mapped x/z bits to 0."""

    __slots__ = ("sets", "clock", "xz")

    def __init__(self, text: str, codes: dict[str, int], widths: list[int], clk: int | None):
        sets: list[tuple[int, int]] = []
        clock: list[int] = []
        self.xz: list[int] = []
        for offset, raw_line in enumerate(text.split("\n")):
            line = raw_line.strip()
            if not line or line.startswith(_SKIPPED):
                continue
            lead = line[0]
            if lead in "01xXzZ":
                code, raw = line[1:].strip(), lead
            elif lead in "bB":
                parts = line[1:].split()
                if len(parts) != 2:
                    raise _BadLine(offset, f"malformed vector change {line!r}")
                raw, code = parts
                if raw.strip("01xXzZ"):
                    raise _BadLine(offset, f"bad vector value in {line!r}")
            else:
                raise _BadLine(offset, f"unsupported value change {line!r}")
            index = codes.get(code)
            if index is None:
                raise _BadLine(offset, f"value change for undeclared id {code!r}")
            if raw.strip("01"):
                raw = raw.translate(_XZ_TO_0)
                self.xz.append(index)
            # The low `width` digits: the value masked to the width.
            value = int(raw[-widths[index]:], 2)
            if index == clk:
                clock.append(value)
            else:
                sets.append((index, value))
        self.sets = tuple(sets)
        self.clock = tuple(clock)


class _Blocks(dict):
    """Blocks by text, each decoded on first use."""

    def __init__(self, codes: dict[str, int], widths: list[int], clk: int | None):
        super().__init__()
        self.codes = codes
        self.widths = widths
        self.clk = clk

    def __missing__(self, text: str) -> _Block:
        block = self[text] = _Block(text, self.codes, self.widths, self.clk)
        return block


class _StepCodes(dict):
    """The characters of each distinct time step in the step string that
    `_sample` reads: its number in `changing`, between marks, if it changes
    ids other than the clock; then, if it changes the clock, a head ('i' if
    its own clock values rise from 0 to 1, else '1' if the first is 1, else
    'o') and its last clock value ('0' or 'n' for 1). A step is a rising
    edge exactly where its head is 'i' or follows a '0'."""

    def __init__(self, blocks: _Blocks):
        super().__init__()
        self.blocks = blocks
        self.changing: list[_Block] = []

    def __missing__(self, step: str) -> str:
        block = self.blocks[step]
        code = ""
        if block.sets:
            code = f"{_SETS_MARK}{len(self.changing)}{_SETS_END}"
            self.changing.append(block)
        clock = block.clock
        if clock:
            head = "i" if (0, 1) in zip(clock, clock[1:]) else "1" if clock[0] == 1 else "o"
            code += head + ("n" if clock[-1] else "0")
        self[step] = code
        return code


def load_vcd(
    text: str,
    hierarchy_map: dict[str, str] | None = None,
    *,
    expect: DesignHierarchy | None = None,
) -> TraceBundle:
    """Resample a VCD onto clock posedges and build a TraceBundle.

    `hierarchy_map` renames VCD scope paths to design instance paths; scopes
    without a mapping raise UnknownScope when a map is given. With `expect`
    set, design signals missing from the dump are flagged in the bundle's
    warnings rather than invented.
    """
    text = _unify_line_breaks(text)
    end_defs = _END_DEFS.search(text)
    header_end, body_start = end_defs.span() if end_defs else (len(text), len(text))
    vars_by_code, start_cycle, seed_id = _read_header(text[:header_end].split("\n"))
    if end_defs is None and vars_by_code:
        lines = text.count("\n") + (not text.endswith("\n"))
        raise VcdParseError(lines, "missing $enddefinitions")
    codes = {code: i for i, code in enumerate(vars_by_code)}
    widths = [vars_[0][2] for vars_ in vars_by_code.values()]

    # Designated clock: a var literally named clk, shallowest scope wins.
    clk_code = None
    clk_depth = None
    for code, vars_ in vars_by_code.items():
        for scope, name, _, _ in vars_:
            if name == CLOCK_NAME:
                depth = scope.count(".")
                if clk_depth is None or depth < clk_depth:
                    clk_code = code
                    clk_depth = depth
    clk = codes.get(clk_code)

    step_codes = _StepCodes(_Blocks(codes, widths, clk))
    stretches = []
    if clk is not None and widths[clk] == 1:
        stretches = _quiet_stretches(text, body_start, clk_code)
    body = _read_body(text, body_start, stretches, step_codes, clk_code)
    if body is None and stretches:
        body = _read_body(text, body_start, [], step_codes, clk_code)
    if body is None:
        raise _body_error(text, body_start, step_codes.blocks)
    steps, occurrences = body
    if clk is None:
        raise ClockNotFound("no signal named 'clk' in VCD")
    if widths[clk] != 1:
        clk_line = vars_by_code[clk_code][0][3]
        raise VcdParseError(clk_line, f"clock id {clk_code!r} must be declared 1 bit wide")

    layouts, column_codes = _layout(vars_by_code, codes, hierarchy_map)
    runs = _sample(steps, step_codes, clk, column_codes)

    xz_counts: dict[tuple[str, str], int] = {}
    var_lists = list(vars_by_code.values())
    for block, count in occurrences.items():
        for index in step_codes.blocks[block].xz:
            for scope, name, _, _ in var_lists[index]:
                xz_counts[(scope, name)] = xz_counts.get((scope, name), 0) + count
    warnings = [
        f"{scope}.{name}: {count} x/z value(s) mapped to 0"
        for (scope, name), count in sorted(xz_counts.items())
    ]
    if expect is not None:
        for inst in expect.instances:
            module = expect.modules[inst.module_name]
            present = set(layouts[inst.path][2]) if inst.path in layouts else set()
            for decl in module.all_signals():
                if decl.name not in present:
                    warnings.append(
                        f"{inst.path}.{decl.name}: absent from VCD, not invented"
                    )

    return TraceBundle(*runs, layouts, start_cycle, None, seed_id=seed_id, warnings=tuple(warnings))


def _body_error(text: str, start: int, decoded: _Blocks) -> VcdParseError:
    """Why the body text[start:], cut at every timestamp line, cannot be
    read: blocks[k] follows stamps[k - 1], and blocks[0] belongs to time 0.
    Its distinct blocks are decoded in order of first appearance up to the
    first bad timestamp, so the first bad line in the text is reported, and
    else that timestamp."""
    parts = _TIMESTAMP.split(text[start:])
    blocks, stamps = parts[0::2], parts[1::2]
    bad_stamp = next((k for k, stamp in enumerate(stamps) if not _is_int(stamp)), len(stamps))
    blocks = blocks[:bad_stamp + 1]

    def line_of(k: int) -> int:
        """The line blocks[k] starts on; each timestamp ends one line."""
        body_line = text.count("\n", 0, start) + 1
        return body_line + k + sum(map(str.count, blocks[:k], repeat("\n")))

    for block in dict.fromkeys(blocks):
        try:
            decoded[block]
        except _BadLine as bad:
            return VcdParseError(line_of(blocks.index(block)) + bad.offset, bad.message)
    bad_line = line_of(bad_stamp) + blocks[bad_stamp].count("\n") + 1
    return VcdParseError(bad_line, f"bad timestamp {('#' + stamps[bad_stamp]).strip()!r}")


def _quiet_stretches(text: str, start: int, clk_code: str) -> list[tuple[int, int, int, int]]:
    """The quiet stretches of the body text[start:], in text order, each as
    (lo, hi, first cycle, cycles): text[lo:hi] is a line break, then the
    text _quiet_chunks gives for those cycles less its last line break, and
    a timestamp line or the end of the text follows."""
    find = re.compile(rf"\n#([0-9]+)\n1{re.escape(clk_code)}\n").search
    cycle_lines = 4  # two timestamps, each with its clock value
    stretches: list[tuple[int, int, int, int]] = []
    pos = start
    while match := find(text, pos):
        lo = pos = match.start() + 1
        try:
            first, odd = divmod(int(match[1]), 2)
        except ValueError:  # more digits than int() converts: no stretch
            continue
        if odd:
            continue
        cycles = 0
        # Each cycle takes at least one character, so the text ends first.
        for size, chunk in _quiet_chunks(first, first + len(text), clk_code):
            if text.startswith(chunk, pos):
                pos += len(chunk)
                cycles += size
                continue
            # The longest prefix of the chunk that the text repeats.
            same, differ = 0, len(chunk)
            while differ - same > 1:
                middle = (same + differ) // 2
                if text.startswith(chunk[:middle], pos):
                    same = middle
                else:
                    differ = middle
            whole, part = divmod(chunk.count("\n", 0, same), cycle_lines)
            pos += _after_line_breaks(chunk, 0, same, part + 1)
            cycles += whole
            break
        if cycles and not text.startswith("#", pos) and pos < len(text):
            # The last cycle's falling edge has more lines in the text.
            pos = _after_line_breaks(text, lo, pos, cycle_lines + 1)
            cycles -= 1
        if cycles:
            stretches.append((lo - 1, pos - 1, first, cycles))
            pos -= 1
        else:
            pos = lo
    return stretches


def _after_line_breaks(text: str, start: int, end: int, count: int) -> int:
    """The position after the `count`-th line break back from `end` in
    text[start:end], or `start` if it has fewer."""
    for _ in range(count):
        end = text.rfind("\n", start, end)
        if end < 0:
            return start
    return end + 1


def _read_body(
    text: str,
    start: int,
    stretches: list[tuple[int, int, int, int]],
    step_codes: _StepCodes,
    clk_code: str | None,
) -> tuple[str, Counter[str]] | None:
    """The step string of the body text[start:] and how often each block of
    it occurs, given its quiet stretches. The text between stretches is cut
    at its timestamp lines into blocks, each decoded once; its steps are in
    time order, blocks of one time acting as one. None if that text has a
    bad line or timestamp, or a time that is not after every time before a
    stretch or not after the stretch before it."""
    bounds = [start, *chain.from_iterable((lo, hi) for lo, hi, _, _ in stretches), len(text)]
    pieces: list[str] = []
    occurrences: Counter[str] = Counter()
    latest = floor = -math.inf
    for k in range(len(stretches) + 1):
        parts = _TIMESTAMP.split(text[bounds[2 * k]:bounds[2 * k + 1]])
        try:
            times = [0, *map(int, parts[1::2])]
        except ValueError:
            return None
        blocks = parts[0::2]
        if k:
            # The text before the first timestamp after a stretch is empty,
            # or the line break that ends the text.
            blocks, times = blocks[1:], times[1:]
        if times:
            if min(times) <= floor:
                return None
            latest = max(latest, max(times))
        counts = Counter(blocks)
        try:
            for block in counts:
                step_codes.blocks[block]
        except _BadLine:
            return None
        occurrences.update(counts)
        pieces.append("".join(map(step_codes.__getitem__, _steps(blocks, times))))
        if k < len(stretches):
            _, _, first, cycles = stretches[k]
            if 2 * first <= latest:
                return None
            latest = floor = 2 * (first + cycles) - 1
            quiet = step_codes["\n1" + clk_code] + step_codes["\n0" + clk_code]
            pieces.append(quiet * cycles)
    return "".join(pieces), occurrences


def _layout(
    vars_by_code: dict[str, list[tuple[str, str, int, int]]],
    codes: dict[str, int],
    hierarchy_map: dict[str, str] | None,
) -> tuple[dict[str, tuple[int, int, list[str], list[int]]], list[int]]:
    """The bundle layout by instance path, and the id index each column
    reads. A (path, name) declared twice keeps its first position and its
    last declaration."""
    per_instance: dict[str, dict[str, tuple[int, int]]] = {}
    for code, vars_ in vars_by_code.items():
        for scope, name, width, _ in vars_:
            if hierarchy_map is not None:
                if scope not in hierarchy_map:
                    raise UnknownScope(f"VCD scope {scope!r} has no instance mapping")
                scope = hierarchy_map[scope]
            per_instance.setdefault(scope, {})[name] = (codes[code], width)
    layouts: dict[str, tuple[int, int, list[str], list[int]]] = {}
    column_codes: list[int] = []
    for path, signals in per_instance.items():
        lo = len(column_codes)
        column_codes.extend(index for index, _ in signals.values())
        layouts[path] = (lo, len(column_codes), list(signals), [w for _, w in signals.values()])
    return layouts, column_codes


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _steps(blocks: list[str], times: list[int]) -> list[str]:
    """The time steps in time order, each the text of its blocks: blocks of
    one time act as one, in their order in the text."""
    if times != sorted(times):
        order = sorted(range(len(times)), key=times.__getitem__)
        blocks = list(map(blocks.__getitem__, order))
        times = list(map(times.__getitem__, order))
    steps: list[str] = []
    done = 0  # blocks[:done] are in steps
    for k in compress(range(1, len(times)), map(eq, times[1:], times)):
        # blocks[k] has the time of blocks[k - 1]
        if k - 1 >= done:
            steps.extend(blocks[done:k])
        steps[-1] += "\n" + blocks[k]
        done = k + 1
    steps.extend(blocks[done:])
    return steps


def _sample(
    steps: str, step_codes: _StepCodes, clk: int, column_codes: list[int]
) -> tuple[list[list[int]], list[int], int]:
    """Sample every id at each time step where the clock rises from 0 to 1,
    after all of that step's changes: the runs of samples (each distinct
    row and the cycle it starts at), and the number of samples.

    `steps` is the step string (see _StepCodes), cut here where a step
    changes ids other than the clock. The clock edges between two such cuts
    are counted in that piece, not walked: a quiet stretch costs one count."""
    pieces = steps.split(_SETS_MARK)
    values = [0] * len(step_codes.blocks.codes)
    rows: list[list[int]] = []
    starts: list[int] = []
    cycles = 0
    changed = True
    carry = "0"  # the clock starts at 0
    for k, piece in enumerate(pieces):
        if k:
            number, _, piece = piece.partition(_SETS_END)
            for index, value in step_codes.changing[int(number)].sets:
                if values[index] != value:
                    values[index] = value
                    changed = True
        clocked = carry + piece
        rises = clocked.count("01") + clocked.count("i")
        if rises:
            if changed:
                changed = False
                # The head of the first rising step, and its last clock value.
                head, inner = clocked.find("01") + 1, clocked.find("i")
                if not head or 0 <= inner < head:
                    head = inner
                values[clk] = int(clocked[head + 1] == "n")
                row = list(map(values.__getitem__, column_codes))
                if not rows or row != rows[-1]:
                    rows.append(row)
                    starts.append(cycles)
            cycles += rises
        carry = clocked[-1]
    return rows, starts, cycles


def load_vcd_file(path: str | Path, **kwargs) -> TraceBundle:
    data = Path(path).read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise VcdParseError(data.count(b"\n", 0, exc.start) + 1, f"not UTF-8 text: {exc}")
    del data  # the text alone may be tens of megabytes
    return load_vcd(text, **kwargs)
