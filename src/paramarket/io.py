"""File emitters with pinned schemas for every artifact paramarket writes.

``simulate`` writes trades.csv, curves.csv and summary.json; ``sweep`` writes
sweep.csv and sweep_aggregate.csv, or layer_table.csv and layer_winners.json
on the layers axis; ``bounds-check`` and ``align-demo`` write
bounds_violations.csv and align_demo.csv. All outputs are UTF-8 with LF line
endings and 17-significant-digit decimals, so a rerun with the same seed
produces byte-identical files.

`atomic_write_text` writes a temp file in the target directory and swaps it
in, so the path names the old or the new complete file at every moment. Over
an existing regular file it exchanges the two names (Linux ``renameat2`` with
``RENAME_EXCHANGE``) and unlinks the old contents: ext4 forces the new data
to disk before a rename that replaces a file commits (up to 31 ms per 3 KB
file, median of a series, on a shared virtio disk), and not for an exchange. Any other target (no
file yet, a symlink, a directory), a libc without ``renameat2`` or a
filesystem that cannot exchange gets a plain `os.replace`. Nothing is
fsynced, so after a power loss a file may be empty; the outputs are
deterministic, so rerun. The temp file is created at ``0o666`` and the kernel
takes the umask off, so files get the mode `open` would give; the umask is
never changed.

``summary.json`` echoes the run's config in the config file's key names and
words, as `config.config_echo` writes it.
"""

import ctypes
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from .config import config_echo
from .engine import MarketLog, convergence_metrics

__all__ = [
    "TRADES_HEADER",
    "CURVES_HEADER",
    "VIOLATIONS_HEADER",
    "ALIGN_DEMO_HEADER",
    "fmt",
    "atomic_write_text",
    "csv_text",
    "json_text",
    "trades_csv",
    "curves_csv",
    "sweep_csv",
    "sweep_aggregate_csv",
    "layer_table_csv",
    "violations_csv",
    "summary_dict",
    "write_run_outputs",
    "write_sweep_outputs",
    "write_layer_outputs",
]

TRADES_HEADER = (
    "round,buyer,seller,merge_weight,gain_kind,gain_value,gain_beneficial,"
    "buyer_valuation,seller_valuation,payment,indicator"
)
CURVES_HEADER = "round,agent,broker_loss,own_loss,est_error,cum_payment"
VIOLATIONS_HEADER = "trial,scenario,realized,lower,upper,gain_a,alpha,beta"
ALIGN_DEMO_HEADER = "weight,loss_aligned,loss_unaligned"


def fmt(value) -> str:
    """17-significant-digit decimal; empty string for absent values."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"  # nan, inf and -inf included
    return str(value)


_AT_FDCWD = -100  # <fcntl.h>: paths relative to the working directory
_RENAME_EXCHANGE = 2  # <linux/fs.h>


@functools.cache
def _renameat2():
    """libc's ``renameat2``, or None where it has none; looked up on the first write."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        fn = ctypes.CDLL(None).renameat2
    except (OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint]
    fn.restype = ctypes.c_int
    return fn


def _exchanged(tmp: str, path: str) -> bool:
    """Swap ``tmp`` and ``path`` when ``path`` is a regular file; False when not swapped."""
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:  # no file yet, or a path fault that os.replace reports
        return False
    exchange = _renameat2()
    return regular and exchange is not None and exchange(
        _AT_FDCWD, os.fsencode(tmp), _AT_FDCWD, os.fsencode(path), _RENAME_EXCHANGE
    ) == 0


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so that the path never names a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")  # unpredictable, made exclusively
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the kernel takes the umask off
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if _exchanged(tmp, path):
            os.unlink(tmp)  # now the previous contents
        else:
            os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: str, rows) -> str:
    """The header line, then one line per row with every field through `fmt`."""
    lines = [header]
    lines.extend(",".join(map(fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# The run logs write `fmt`'s fields with each column's type fixed, one format per row.
def _optional(x: float | None) -> str:
    return "" if x is None else f"{x:.17g}"


def trades_csv(log: MarketLog) -> str:
    return "\n".join([TRADES_HEADER, *(
        f"{r.round_index},{r.buyer},{r.seller},{r.merge_weight:.17g},{r.gain.kind.value},"
        f"{r.gain.value:.17g},{'1' if r.gain.trade_beneficial else '0'},{_optional(r.buyer_valuation)},"
        f"{_optional(r.seller_valuation)},{_optional(r.payment)},{'1' if r.indicator else '0'}"
        for r in log.trades
    )]) + "\n"


def curves_csv(log: MarketLog) -> str:
    return "\n".join([CURVES_HEADER, *(
        f"{row.round_index},{row.agent},{row.broker_loss:.17g},{row.own_loss:.17g},"
        f"{row.est_error:.17g},{row.cum_payment:.17g}"
        for row in log.curves
    )]) + "\n"


def sweep_csv(result) -> str:
    """One row per (cell, seed); ``value`` keeps ``str`` (`fmt(0.2)` has 17 digits)."""
    agents = sorted(result.rows[0].improvement_broker)
    names = ("improvement_broker", "improvement_error", "final_broker")
    header = ",".join(["cell,axis,value,seed", *(f"{n}_{u}" for n in names for u in agents)])
    return csv_text(header, (
        (r.cell, result.axis, str(r.value), r.seed,
         *(getattr(r, n)[u] for n in names for u in agents))
        for r in result.rows
    ))


def sweep_aggregate_csv(result) -> str:
    """Mean and standard deviation of each agent's error improvement per cell."""
    agents = sorted(result.rows[0].improvement_broker)
    stats = [f"{s}_improvement_error_{u}" for u in agents for s in ("mean", "std")]
    header = ",".join(["value", *stats])
    rows = []
    for value, cell in result.cells():
        row = [str(value)]
        for u in agents:
            vals = [r.improvement_error[u] for r in cell]
            row += [float(np.mean(vals)), float(np.std(vals))]
        rows.append(row)
    return csv_text(header, rows)


def layer_table_csv(table: dict) -> str:
    """Mean broker-loss improvement per layer set (``;`` separates its layers)."""
    agents = sorted(next(iter(table.values())))
    return csv_text(",".join(["layer_set", *agents]), (
        (label.replace(",", ";"), *(perf[u] for u in sorted(perf))) for label, perf in table.items()
    ))


def violations_csv(violations) -> str:
    keys = VIOLATIONS_HEADER.split(",")
    return csv_text(VIOLATIONS_HEADER, ([v[k] for k in keys] for v in violations))


def summary_dict(log: MarketLog) -> dict:
    agents = {}
    for u in log.agent_ids:
        final = log.final_row(u)
        agents[u] = {
            "final_broker_loss": final.broker_loss,
            "final_own_loss": final.own_loss,
            "final_est_error": None if math.isnan(final.est_error) else final.est_error,
            "cum_payment": final.cum_payment,
            "executed_trades": sum(1 for r in log.trades if r.buyer == u and r.indicator),
            "declined_or_failed": sum(1 for r in log.trades if r.buyer == u and not r.indicator),
        }
    out = {
        "config": {**config_echo(log.config), "resolved_step_sizes": dict(log.step_sizes)},
        "agents": agents,
        "total_trades_executed": sum(1 for r in log.trades if r.indicator),
        "rounds": max((r.round_index for r in log.curves), default=0),
    }
    eps = log.config.convergence_epsilon
    if eps is not None:
        out["convergence_rounds"] = convergence_metrics(log, eps)
    return out


def write_run_outputs(log: MarketLog, out_dir: str) -> dict:
    """Emit the three run artifacts into ``out_dir``; returns their paths."""
    paths = {
        "trades": os.path.join(out_dir, "trades.csv"),
        "curves": os.path.join(out_dir, "curves.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
    }
    atomic_write_text(paths["trades"], trades_csv(log))
    atomic_write_text(paths["curves"], curves_csv(log))
    atomic_write_text(paths["summary"], json_text(summary_dict(log)))
    return paths


def write_sweep_outputs(result, out_dir: str) -> None:
    """Emit ``sweep.csv`` and ``sweep_aggregate.csv`` of a `SweepResult`."""
    atomic_write_text(os.path.join(out_dir, "sweep.csv"), sweep_csv(result))
    atomic_write_text(os.path.join(out_dir, "sweep_aggregate.csv"), sweep_aggregate_csv(result))


def write_layer_outputs(report: dict, out_dir: str) -> None:
    """Emit ``layer_table.csv`` and ``layer_winners.json`` of a `layer_subset_table` report."""
    atomic_write_text(os.path.join(out_dir, "layer_table.csv"), layer_table_csv(report["table"]))
    atomic_write_text(os.path.join(out_dir, "layer_winners.json"), json_text(report["winners"]))
