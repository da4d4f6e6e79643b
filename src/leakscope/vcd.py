"""Value-change-dump emission and ingestion.

The writer lays each clock cycle out over two timestamps (posedge at #2k,
falling edge at #2k+1) and dumps signal values coincident with the posedge,
so a loader sampling at rising clock edges recovers the exact per-cycle
values. Bundle metadata (start cycle, seed id) rides in a $comment so a
round trip reproduces the bundle bit for bit. The bundle's runs are the
dump's value changes: each run start is one timestamp of changes, and the
cycles inside a run have only their clock lines, formatted in one call.

The loader accepts the IEEE-1364 subset named in the docs: $timescale,
$scope module, $var wire/reg, $enddefinitions, #time stamps, scalar and
b-vector changes. x/z bits map to 0 and are counted per signal. It cuts the
body at its timestamp lines into blocks and decodes each distinct block
once. Each time step becomes a few characters of one string, so the
posedges of a stretch without value changes are counted with str.count and
extend the current run, instead of being replayed line by line.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import compress, repeat
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


def write_vcd(bundle: TraceBundle) -> str:
    """Serialize a trace bundle; inverse of load_vcd for our own output."""
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

    # Scope tree from dotted instance paths.
    def scope_children(prefix: str) -> list[str]:
        depth = prefix.count(".") + 1 if prefix else 0
        return [
            p for p in paths
            if (p.startswith(prefix + ".") if prefix else True)
            and p.count(".") == depth
        ]

    def emit_scope(path: str) -> None:
        leaf = path.rsplit(".", 1)[-1]
        out.append(f"$scope module {leaf} $end")
        names = bundle.signal_names(path)
        widths = bundle.signal_widths(path)
        for name, width in zip(names, widths):
            out.append(f"$var wire {width} {var_ids[(path, name)]} {name} $end")
        for child in scope_children(path):
            emit_scope(child)
        out.append("$upscope $end")

    roots = scope_children("")
    for root in roots:
        emit_scope(root)
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

    # A cycle inside a run has only its clock lines, so the rest of a run
    # is one format call over its timestamps.
    if clk_id is None:
        quiet_cycle, stamp_step = "#%d", 2
    else:
        clk = clk_id.replace("%", "%%")
        quiet_cycle, stamp_step = f"#%d\n1{clk}\n#%d\n0{clk}", 1

    def add_quiet(first: int, stop: int) -> None:
        if stop > first:
            stamps = tuple(range(2 * first, 2 * stop, stamp_step))
            out.append("\n".join([quiet_cycle] * (stop - first)) % stamps)

    following = 0
    for cycle, changes in bundle.value_changes(signals):
        add_quiet(following, cycle)
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
    add_quiet(following, bundle.cycles)
    return "\n".join(out) + "\n"


def save_vcd(bundle: TraceBundle, path: str | Path) -> None:
    Path(path).write_text(write_vcd(bundle))


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

# Widest vector a $var may declare: IEEE 1364 lets tools cap vector length,
# at no less than 2**16 bits.
MAX_VCD_WIDTH = 1 << 16

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
    if not text.isascii() or any(map(text.__contains__, "\r\v\f\x1c\x1d\x1e")):
        # Every other line break str.splitlines() knows becomes "\n"; the
        # line ending the text keeps one, so the line count is unchanged.
        text = "\n".join(text.splitlines() + [""])
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

    # The body, cut at its timestamp lines into blocks: blocks[k] follows
    # stamps[k - 1], and blocks[0] belongs to time 0. Each distinct block is
    # decoded once, in order of first appearance, so the first bad line in
    # the text raises first.
    parts = _TIMESTAMP.split(text[body_start:])
    blocks, stamps = parts[0::2], parts[1::2]
    try:
        times = [0, *map(int, stamps)]
        bad_stamp = None
    except ValueError:
        bad_stamp = next(k for k, stamp in enumerate(stamps) if not _is_int(stamp))
        blocks = blocks[:bad_stamp + 1]

    def line_of(k: int) -> int:
        """The line blocks[k] starts on; each timestamp ends one line."""
        body_line = text.count("\n", 0, body_start) + 1
        return body_line + k + sum(map(str.count, blocks[:k], repeat("\n")))

    occurrences = Counter(blocks)
    decoded = _Blocks(codes, widths, clk)
    for block in occurrences:
        try:
            decoded[block]
        except _BadLine as bad:
            raise VcdParseError(line_of(blocks.index(block)) + bad.offset, bad.message)
    if bad_stamp is not None:
        bad_line = line_of(bad_stamp) + blocks[bad_stamp].count("\n") + 1
        raise VcdParseError(bad_line, f"bad timestamp {('#' + stamps[bad_stamp]).strip()!r}")
    if clk is None:
        raise ClockNotFound("no signal named 'clk' in VCD")
    if widths[clk] != 1:
        clk_line = vars_by_code[clk_code][0][3]
        raise VcdParseError(clk_line, f"clock id {clk_code!r} must be declared 1 bit wide")

    layouts, column_codes = _layout(vars_by_code, codes, hierarchy_map)
    runs = _sample(_steps(blocks, times), decoded, clk, column_codes)

    xz_counts: dict[tuple[str, str], int] = {}
    var_lists = list(vars_by_code.values())
    for block, count in occurrences.items():
        for index in decoded[block].xz:
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
    steps: list[str], blocks: _Blocks, clk: int, column_codes: list[int]
) -> tuple[list[list[int]], list[int], int]:
    """Sample every id at each time step where the clock rises from 0 to 1,
    after all of that step's changes: the runs of samples (each distinct
    row and the cycle it starts at), and the number of samples.

    The steps become one string (see _StepCodes), cut where a step changes
    ids other than the clock. The clock edges between two such cuts are
    counted in that piece, not walked: a quiet stretch costs one count."""
    step_codes = _StepCodes(blocks)
    pieces = "".join(map(step_codes.__getitem__, steps)).split(_SETS_MARK)
    values = [0] * len(blocks.codes)
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
                head = min(p for p in (clocked.find("01") + 1, clocked.find("i")) if p > 0)
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
    return load_vcd(text, **kwargs)
