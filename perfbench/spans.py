"""In-memory span recorder, attribute wrappers and the arithmetic on spans.

A span is ``[name, start_ns, end_ns, parent]`` where ``parent`` is the index
of the enclosing span in the same list (-1 for none). Spans are appended on
entry, so a parent always precedes its children. Clock: ``time.monotonic_ns``
(CLOCK_MONOTONIC on Linux), which is shared by every process on the host, so
a parent process can subtract its own timestamps from a child's.

Nothing here imports the program under test: the recorder wraps whatever
module or class attribute it is given, and restores the originals on
``restore``.
"""

import time
from collections import Counter

clock_ns = time.monotonic_ns


class Recorder:
    """Collects spans and counts from wrapped callables."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._patched = []

    # -- explicit spans (for intervals that are not a single call) ---------

    def open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock_ns(), 0, parent])
        self.stack.append(index)
        return index

    def close(self, index):
        if not self.stack or self.stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self.stack.pop()
        self.spans[index][2] = clock_ns()

    # -- wrappers ----------------------------------------------------------

    def timed(self, fn, name, before=None, after=None):
        """Wrap ``fn`` so each call is one span.

        ``name`` is a string or a callable of the call's arguments.
        ``before(args, kwargs)`` runs ahead of the span (outside it);
        ``after(args, kwargs, result)`` runs once the span is closed.
        """
        spans, stack = self.spans, self.stack
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append([name if fixed else name(args), clock_ns(), 0,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock_ns()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, name):
        """Wrap ``fn`` so each call bumps ``counts[name]``; nothing is timed,
        which keeps the cost of per-VM scalar functions bounded."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def hooked(self, fn, before):
        """Wrap ``fn`` so ``before(args, kwargs)`` runs ahead of each call."""
        def wrapper(*args, **kwargs):
            before(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, make_wrapper):
        """Replace ``owner.attr`` by ``make_wrapper(original)``.

        Returns False, and patches nothing, when the attribute does not
        exist, so a renamed function leaves its metrics at zero instead of
        breaking the run.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            return False
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def durations_ns(spans, name):
    return [end - start for n, start, end, _ in spans if n == name]


def self_times_ns(spans):
    """Per-span self time: its duration minus the durations of its direct
    children. The self times of a span and all its descendants add up to
    that span's duration exactly when children nest inside their parent."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def descendants(spans, root):
    """Indices of ``root`` and every span below it."""
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index][3] in inside:
            inside.add(index)
    return sorted(inside)


def self_time_by_name(spans, root):
    """{name: total self time in ns} over ``root`` and its descendants."""
    own = self_times_ns(spans)
    totals = Counter()
    for index in descendants(spans, root):
        totals[spans[index][0]] += own[index]
    return dict(totals)


def nesting_errors(spans):
    """Spans that are unclosed or stick out of their parent."""
    bad = []
    for index, (name, start, end, parent) in enumerate(spans):
        if end < start:
            bad.append(f"{name}#{index} unclosed or reversed")
        elif parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                bad.append(f"{name}#{index} outside its parent")
    return bad
