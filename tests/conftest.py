"""Checks that every test of the suite gets."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child of the test process running or
    unreaped: the solver may fork, and must end every child it starts."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid:
        pytest.fail(f"the test left child {pid} unreaped (status {status})")
    pytest.fail("the test left a child process running")
