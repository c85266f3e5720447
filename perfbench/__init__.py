"""The netstack benchmark: closed-loop workloads over an in-process wire."""
