"""The event stream of every workload's meta captures is pinned.

Each of the 27 b2 captures (nine workloads x inference, Adam training and
SGD training) must hash to its line in ``tests/fixtures/capture_digests.txt``.
A refactor of the op library must leave every line as it is; a change
that means to move events re-records the file (``PYTHONPATH=src
python -m tests.trace.captures``) and says so. The meta == eager differential keeps
the eager backend covered.
"""

from tests.trace.captures import COLUMNS, column_digests, capture_digest, meta_captures, read_fixture


def test_meta_captures_match_the_pinned_digests():
    pinned = read_fixture()
    captures = meta_captures()
    assert sorted(captures) == sorted(pinned)
    for capture_id, columns in captures.items():
        digests = column_digests(columns)
        digest, prefixes = pinned[capture_id]
        if capture_digest(digests) == digest:
            continue
        moved = [name for name, prefix in zip(COLUMNS, prefixes)
                 if digests[name][:8] != prefix]
        raise AssertionError(
            f"{capture_id}: events moved; first column that differs: "
            f"{moved[0] if moved else '(none by prefix)'} (all: {moved})")
