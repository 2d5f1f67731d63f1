"""High-level pipeline API and command-line interface."""

from .incremental import Workspace, WorkspaceStats
from .api import (
    CompileOptions,
    analyze_database,
    analyze_store,
    build_project_from_dir,
    compile_file,
    compile_source,
    compile_to_object,
    link_objects,
)

__all__ = [
    "Workspace", "WorkspaceStats",
    "CompileOptions", "analyze_database", "analyze_store",
    "build_project_from_dir", "compile_file", "compile_source",
    "compile_to_object", "link_objects",
]
