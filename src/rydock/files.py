"""The one JSON reader and the one JSON document writer for rydock's files.

Two logs are written a line at a time outside `write`, as JSON lines that
`read(..., lines=True)` reads back: `vqaa`'s `trials.jsonl` grows one trial
at a time, so that `--resume` can replay a search that was cut short, and
`save_dataset` writes one `dataset.jsonl` record per register.

`read` turns every way an input file can be unreadable or malformed into an
InputError that names the file, so the CLI exits 2 on it. Its `parse`
callbacks decode, and may check what they decode; checks that compute on the
decoded value run after it returns.
"""

from __future__ import annotations

import json

from .errors import InputError


def _lines(text):
    """The documents on the non-blank lines of `text`; a decoding error is
    placed in the whole text, not in its line."""
    docs, start = [], 0
    for line in text.split("\n"):
        if line.strip():
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise json.JSONDecodeError(exc.msg, text, start + exc.pos) from None
        start += len(line) + 1
    return docs


def read(path, parse, lines=False):
    """`parse` of the JSON document in `path`, or with `lines` of the list of
    documents on its non-blank lines.

    A missing or unreadable file, invalid JSON, and any KeyError,
    AttributeError, IndexError, TypeError or ValueError (InputError included)
    that `parse` raises become an InputError naming `path`.
    """
    try:
        with open(path) as fh:
            return parse(_lines(fh.read()) if lines else json.load(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


def write(path, doc):
    """Write `doc` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
