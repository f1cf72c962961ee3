"""Flat key=value config files, and the one CSV writer of every output.

One key per line, keys named exactly after the dataclass fields; blank
lines and '#' comments are ignored.  Unknown or unparseable keys raise
ConfigError carrying the line number.
"""

import dataclasses

import numpy as np

from .errors import ConfigError

# Rows write_csv formats and writes at a time, so that it never holds the
# whole file's values as Python objects, nor its text.
_CSV_BLOCK_ROWS = 4096


def read_text(path, error):
    """The text of a UTF-8 file, its line ends read as ``\n``; bytes that
    are not UTF-8 raise ``error``, a FiqError class, naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc


def write_csv(path, header, fmt, values):
    """Write the ``header`` line, then one line of %-format ``fmt`` per
    row of the row-major flat ``values``, a list or a 1-D array, a row
    having as many values as the header names columns.  Rows are
    formatted and written ``_CSV_BLOCK_ROWS`` at a time."""
    width = header.count(",") + 1
    step = _CSV_BLOCK_ROWS * width
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}\n")
        for start in range(0, len(values), step):
            block = values[start:start + step]
            if isinstance(block, np.ndarray):
                block = block.tolist()
            fh.write(f"{fmt}\n" * (len(block) // width) % tuple(block))


def read_kv_file(path):
    entries = []
    lines = read_text(path, ConfigError).split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, "
                              f"got {line!r}")
        key, _, value = line.partition("=")
        entries.append((lineno, key.strip(), value.strip()))
    return entries


def _convert(key, text, target_type, lineno, path):
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        if target_type is str:
            return text
    except ValueError as exc:
        raise ConfigError(
            f"{path}:{lineno}: cannot parse {key}={text!r}") from exc
    raise ConfigError(f"{path}:{lineno}: unsupported type for key {key}")


def build_config(cls, path, required=(), overrides=None, fixed=None,
                 fixed_by=None):
    """Instantiate dataclass ``cls`` from a key=value file; each value
    is parsed as its field's annotated type.  ``fixed`` values, set by
    ``fixed_by``, are applied after the file, and a file value that
    differs from one is a ConfigError.  ``overrides`` are applied last
    (CLI flags beat file values).
    """
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    values = {}
    for lineno, key, text in read_kv_file(path):
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _convert(key, text, types[key], lineno, path)
    for key, value in (fixed or {}).items():
        if values.setdefault(key, value) != value:
            raise ConfigError(f"{path}: {key}={values[key]!r} disagrees with "
                              f"{fixed_by}, which sets {key}={value!r}")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    for key in required:
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return cls(**values)
