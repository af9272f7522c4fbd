"""Reproduction of Lim, Norris & Malony, "Autotuning GPU Kernels via
Static and Predictive Analysis" (ICPP 2017); see docs/ARCHITECTURE.md."""
