"""Tests for the structured logging setup."""

import io
import logging

from repro.obs.log import (
    LOG_LEVEL_ENV,
    get_logger,
    setup_logging,
    setup_worker_logging,
    verbosity_to_level,
    worker_log_level,
)


class TestVerbosityMapping:
    def test_levels(self):
        assert verbosity_to_level(-1) == logging.WARNING
        assert verbosity_to_level(0) == logging.INFO
        assert verbosity_to_level(1) == logging.DEBUG
        assert verbosity_to_level(3) == logging.DEBUG


class TestSetup:
    def test_idempotent_single_handler(self):
        logger = setup_logging(0)
        setup_logging(1)
        setup_logging(0)
        tagged = [
            h for h in logger.handlers
            if getattr(h, "_repro_handler", False)
        ]
        assert len(tagged) == 1

    def test_namespaced_loggers_route_through_handler(self):
        buf = io.StringIO()
        setup_logging(0, stream=buf)
        get_logger("core.orchestrator").info("hello from the engine")
        out = buf.getvalue()
        assert "hello from the engine" in out
        assert "repro.core.orchestrator" in out

    def test_quiet_suppresses_info(self):
        buf = io.StringIO()
        setup_logging(-1, stream=buf)
        get_logger("cli").info("not shown")
        get_logger("cli").warning("shown")
        out = buf.getvalue()
        assert "not shown" not in out
        assert "shown" in out

    def test_level_exported_to_env(self, monkeypatch):
        monkeypatch.delenv(LOG_LEVEL_ENV, raising=False)
        setup_logging(1)
        import os

        assert os.environ[LOG_LEVEL_ENV] == "DEBUG"

    def test_stdout_untouched(self, capsys):
        setup_logging(0)
        get_logger("cli").info("diagnostics only")
        assert capsys.readouterr().out == ""


class TestWorkerLevel:
    def test_worker_level_from_env(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "DEBUG")
        assert worker_log_level() == logging.DEBUG

    def test_worker_level_default_quiet(self, monkeypatch):
        monkeypatch.delenv(LOG_LEVEL_ENV, raising=False)
        assert worker_log_level() == logging.WARNING

    def test_worker_level_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "NOT_A_LEVEL")
        assert worker_log_level() == logging.WARNING

    def test_setup_worker_logging(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "WARNING")
        setup_worker_logging()
        assert logging.getLogger("repro").level == logging.WARNING
