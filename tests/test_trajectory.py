"""Tags of ``benchmarks/trajectory.py`` against a throwaway git repository."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="needs git")

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "trajectory.py"


def load_trajectory():
    spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.fixture
def repo(tmp_path: Path) -> Path:
    """Two commits: code plus an empty checked-in trajectory log."""
    git(tmp_path, "init", "-q")
    git(tmp_path, "config", "user.name", "trajectory test")
    git(tmp_path, "config", "user.email", "test@example.com")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "trajectory.jsonl").write_text("")
    for text in ("x = 1\n", "x = 2\n"):
        (tmp_path / "code.py").write_text(text)
        git(tmp_path, "add", ".")
        git(tmp_path, "commit", "-q", "-m", text.strip())
    return tmp_path


def short(repo: Path, rev: str) -> str:
    return git(repo, "rev-parse", "--short=12", rev)


def test_an_appended_log_row_leaves_a_committed_tree_clean(repo):
    trajectory = load_trajectory()
    with open(repo / "benchmarks" / "trajectory.jsonl", "a") as log:
        log.write('{"label": "parent"}\n')
    tagged = trajectory.tags(str(repo), "parent")
    assert tagged["dirty"] is False
    assert tagged["commit"] == short(repo, "HEAD")
    assert tagged["parent"] == short(repo, "HEAD^")


def test_an_uncommitted_change_is_measured_on_top_of_head(repo):
    trajectory = load_trajectory()
    (repo / "code.py").write_text("x = 3\n")
    tagged = trajectory.tags(str(repo), "change")
    assert tagged["dirty"] is True
    assert tagged["parent"] == short(repo, "HEAD")
    assert tagged["commit"] not in ("", tagged["parent"])
    # the commit holds the working tree, with HEAD as its first parent
    assert short(repo, tagged["commit"] + "^") == tagged["parent"]
    assert git(repo, "show", tagged["commit"] + ":code.py") == "x = 3"
    assert git(repo, "status", "--porcelain") == "M code.py"
