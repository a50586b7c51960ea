"""Tests for the shared language-alias normaliser."""

from pathlib import Path

import pytest

from repro.utils.languages import (
    UnknownLanguageError,
    language_for_path,
    normalize_language,
)


class TestNormalize:
    @pytest.mark.parametrize("alias", [
        "c", "C", "cpp", "CPP", "c++", "cc", "cxx", "c/c++", "C/C++",
    ])
    def test_c_family(self, alias):
        assert normalize_language(alias) == "C/C++"

    @pytest.mark.parametrize("alias", [
        "f", "f90", "F90", "f95", "fortran", "Fortran", "FORTRAN", "f77",
    ])
    def test_fortran_family(self, alias):
        assert normalize_language(alias) == "Fortran"

    def test_whitespace_tolerated(self):
        assert normalize_language("  c  ") == "C/C++"

    def test_unknown_language_message(self):
        with pytest.raises(UnknownLanguageError) as err:
            normalize_language("rust")
        msg = str(err.value)
        assert "rust" in msg and "fortran" in msg and "cpp" in msg

    def test_non_string_rejected(self):
        with pytest.raises(UnknownLanguageError):
            normalize_language(None)


class TestLanguageForPath:
    def test_extensions(self):
        assert language_for_path("a/b/kernel.c") == "C/C++"
        assert language_for_path("x.CPP") == "C/C++"
        assert language_for_path("x.f90") == "Fortran"
        assert language_for_path("x.F90") == "Fortran"
        assert language_for_path("x.py") is None
        assert language_for_path("Makefile") is None

    def test_only_the_last_suffix_of_the_name_counts(self):
        assert language_for_path(Path("src.f90/kernel.c")) == "C/C++"
        assert language_for_path("src.c/Makefile") is None
        assert language_for_path("a/.c") is None  # a dotfile has no suffix
        assert language_for_path("kernel.c.") is None
