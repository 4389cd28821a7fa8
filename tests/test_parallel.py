"""The order-preserving map the survey runs its candidates through."""

from __future__ import annotations

import threading

import pytest

from fpkit.parallel import parallel_map


class TestParallelMap:
    def test_serial(self):
        assert parallel_map(lambda x: x * x, range(6)) == [0, 1, 4, 9, 16, 25]

    def test_preserves_order(self):
        assert parallel_map(lambda x: x * x, range(40)) == [x * x for x in range(40)]

    def test_single_item(self):
        assert parallel_map(lambda x: x + 1, [41]) == [42]

    def test_consumes_a_generator(self):
        assert parallel_map(str, (x for x in range(3))) == ["0", "1", "2"]

    def test_empty(self):
        assert parallel_map(lambda x: x, []) == []


class TestCallingThread:
    @pytest.mark.parametrize("value", [None, "4", "zero", "1.5", "0", "-2"])
    def test_ignores_thread_variable(self, monkeypatch, value):
        # every item runs in the caller's thread, whatever FPKIT_THREADS says
        if value is None:
            monkeypatch.delenv("FPKIT_THREADS", raising=False)
        else:
            monkeypatch.setenv("FPKIT_THREADS", value)
        caller = threading.get_ident()
        idents = parallel_map(lambda _: threading.get_ident(), range(8))
        assert idents == [caller] * 8
