"""Value-change-dump emission and ingestion.

The writer lays each clock cycle out over two timestamps (posedge at #2k,
falling edge at #2k+1) and dumps signal values coincident with the posedge,
so a loader sampling at rising clock edges recovers the exact per-cycle
values. Bundle metadata (start cycle, seed id) rides in a $comment so a
round trip reproduces the bundle bit for bit. A cycle that repeats the
previous row has no value changes to compare, only its clock.

The loader accepts the IEEE-1364 subset named in the docs: $timescale,
$scope module, $var wire/reg, $enddefinitions, #time stamps, scalar and
b-vector changes. x/z bits map to 0 and are counted per signal.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
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

    for cycle, changes in enumerate(bundle.value_changes(signals)):
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
    return "\n".join(out) + "\n"


def save_vcd(bundle: TraceBundle, path: str | Path) -> None:
    Path(path).write_text(write_vcd(bundle))


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

class _Var:
    __slots__ = ("scope", "name", "width")

    def __init__(self, scope: str, name: str, width: int):
        self.scope = scope
        self.name = name
        self.width = width


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
    vars_by_code: dict[str, list[_Var]] = {}
    scope_stack: list[str] = []
    changes: list[tuple[int, str, str]] = []  # (time, code, raw value)
    start_cycle = 0
    seed_id = "vcd"
    in_defs = True
    time = 0
    lineno = 0

    for raw_line in text.splitlines():
        lineno += 1
        line = raw_line.strip()
        if not line:
            continue
        if in_defs:
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
                code = parts[3]
                name = parts[4]
                scope = ".".join(scope_stack)
                vars_by_code.setdefault(code, []).append(_Var(scope, name, width))
            elif line.startswith("$comment"):
                for field in line.split():
                    if field.startswith("start_cycle="):
                        start_cycle = int(field.split("=", 1)[1])
                    elif field.startswith("seed_id="):
                        seed_id = field.split("=", 1)[1]
            elif line.startswith("$enddefinitions"):
                in_defs = False
            elif line.startswith(("$timescale", "$date", "$version")):
                continue
            continue

        # Value-change section.
        lead = line[0]
        if lead in "01xXzZ":
            changes.append((time, line[1:].strip(), lead))
        elif lead == "#":
            try:
                time = int(line[1:])
            except ValueError:
                raise VcdParseError(lineno, f"bad timestamp {line!r}")
        elif line.startswith(("$dumpvars", "$end", "$dumpall", "$dumpon", "$dumpoff")):
            continue
        elif lead in "bB":
            parts = line[1:].split()
            if len(parts) != 2:
                raise VcdParseError(lineno, f"malformed vector change {line!r}")
            changes.append((time, parts[1], parts[0]))
        else:
            raise VcdParseError(lineno, f"unsupported value change {line!r}")

    if in_defs and vars_by_code:
        raise VcdParseError(lineno, "missing $enddefinitions")

    # Designated clock: a var literally named clk, shallowest scope wins.
    clk_code = None
    clk_depth = None
    for code, vars_ in vars_by_code.items():
        for var in vars_:
            if var.name == CLOCK_NAME:
                depth = var.scope.count(".")
                if clk_depth is None or depth < clk_depth:
                    clk_code = code
                    clk_depth = depth
    if clk_code is None:
        raise ClockNotFound("no signal named 'clk' in VCD")

    xz_counts: dict[tuple[str, str], int] = {}

    def decode(raw: str, width: int, codes: list[_Var]) -> int:
        cleaned = []
        had_xz = False
        for ch in raw:
            if ch in "xXzZ":
                cleaned.append("0")
                had_xz = True
            else:
                cleaned.append(ch)
        if had_xz:
            for var in codes:
                key = (var.scope, var.name)
                xz_counts[key] = xz_counts.get(key, 0) + 1
        value = int("".join(cleaned), 2)
        return value & ((1 << width) - 1)

    # Replay changes in time order; snapshot all values at each clk posedge.
    # A posedge with no other value change since the last snapshot reuses it.
    values: dict[str, int] = {code: 0 for code in vars_by_code}
    samples: list[dict[str, int]] = []
    changed = True
    clk_value = 0
    changes.sort(key=itemgetter(0))
    for _, batch in groupby(changes, key=itemgetter(0)):
        posedge = False
        for _, code, raw in batch:
            codes = vars_by_code.get(code)
            if codes is None:
                raise VcdParseError(0, f"value change for undeclared id {code!r}")
            width = codes[0].width
            if raw == "0":
                value = 0
            elif raw == "1":
                value = 1 & ((1 << width) - 1)
            else:
                value = decode(raw, width, codes)
            if code == clk_code:
                if clk_value == 0 and value == 1:
                    posedge = True
                clk_value = value
            elif value != values[code]:
                changed = True
            values[code] = value
        if posedge:
            if changed:
                sample = dict(values)
                changed = False
            samples.append(sample)

    # Regroup per instance path.
    per_instance: dict[str, dict[str, list[int]]] = {}
    widths: dict[str, dict[str, int]] = {}
    for code, vars_ in vars_by_code.items():
        for var in vars_:
            scope = var.scope
            if hierarchy_map is not None:
                if scope not in hierarchy_map:
                    raise UnknownScope(f"VCD scope {scope!r} has no instance mapping")
                scope = hierarchy_map[scope]
            series = list(map(itemgetter(code), samples))
            per_instance.setdefault(scope, {})[var.name] = series
            widths.setdefault(scope, {})[var.name] = var.width

    warnings = [
        f"{scope}.{name}: {count} x/z value(s) mapped to 0"
        for (scope, name), count in sorted(xz_counts.items())
    ]
    if expect is not None:
        for inst in expect.instances:
            module = expect.modules[inst.module_name]
            present = per_instance.get(inst.path, {})
            for decl in module.all_signals():
                if decl.name not in present:
                    warnings.append(
                        f"{inst.path}.{decl.name}: absent from VCD, not invented"
                    )

    return TraceBundle.from_signal_values(
        per_instance, widths, start_cycle, seed_id=seed_id, warnings=tuple(warnings)
    )


def load_vcd_file(path: str | Path, **kwargs) -> TraceBundle:
    return load_vcd(Path(path).read_text(), **kwargs)
