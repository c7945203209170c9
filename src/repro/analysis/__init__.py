"""Static analysis of the simulator's own source (:mod:`simlint`)."""
