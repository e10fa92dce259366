"""Shared helpers for the benchmark harness.

Every benchmark regenerates one artifact of the paper (a table, a
figure, or a theorem's witness), asserts the paper's qualitative claim,
and times the operation that produces it.  Run with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to see the regenerated artifacts printed next to the paper's
values.
"""

from __future__ import annotations


def banner(title: str) -> None:
    """Print a section banner (visible with ``-s``)."""
    print("\n" + "=" * 68)
    print(title)
    print("=" * 68)


def show_polynomials(rows) -> None:
    """Print ``(label, polynomial)`` pairs aligned."""
    for label, polynomial in rows:
        print("  {:<28} {}".format(str(label), polynomial))
