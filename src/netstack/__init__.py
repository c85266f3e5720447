"""A user-space TCP/IP stack built from message-passing tasks.

Each protocol layer runs as its own set of tasks wired together by
bounded queues; the package also ships an emulated wire for running
two stacks in one process and a benchmark harness on top of it.
"""

from netstack.config import StackConfig, load_config
from netstack.stack import Stack, linked_stacks, stack_up

__all__ = ["Stack", "StackConfig", "linked_stacks", "load_config", "stack_up"]
