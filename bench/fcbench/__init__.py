"""Seeded end-to-end benchmark of the Femto-Container simulator.

``workloads`` builds each workload's rig from a seed and drives its
closed request loop; ``spans`` times the layers a request crosses by
wrapping the program's public functions from outside at run time.
"""
