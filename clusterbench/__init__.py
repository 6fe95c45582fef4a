"""Seeded end-to-end benchmark of the simulated cluster; see README.md."""
