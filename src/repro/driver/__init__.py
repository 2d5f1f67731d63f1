"""The workspace (the one project type) and the command-line interface."""

from .incremental import Workspace, WorkspaceStats

__all__ = ["Workspace", "WorkspaceStats"]
