"""repro — reproduction of "Accuracy-Constrained Efficiency Optimization and
GPU Profiling of CNN Inference for Detecting Drainage Crossing Locations"
(SC-W 2023).

Subpackages
-----------
tensor     from-scratch autograd deep learning framework (PyTorch stand-in)
geo        synthetic watershed + 4-band orthophoto data substrate (NAIP stand-in)
detect     SPP-Net drainage-crossing detector, training, AP metrics
nas        NNI/Retiarii-style neural architecture search toolkit
graph      computation-graph IR shared by the scheduler and the GPU simulator
gpusim     simulated NVIDIA RTX A5500 (kernels, streams, memory, CUDA runtime)
ios        Inter-Operator Scheduler (DP schedule search + baselines)
profiling  Nsight-Systems-style profiler over the simulated runtime
hydro      DEM conditioning, D8 flow routing, crossing-aware breaching
serve      dynamic-batching inference service over a trained detector
engine     compiled inference engine (traced, fused, planned, fast kernels)
robust     degraded-input sanitization, engine output guard, scan journaling
scanpar    parallel sharded scene scanning (shared-memory zero-copy tiling)
"""

__version__ = "1.0.0"
