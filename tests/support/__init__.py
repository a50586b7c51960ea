"""Test-only reference implementations."""
