"""Programming model: thread contexts, shared memory, synchronization."""

from repro import _lazy

__all__ = [
    "AwaitResult",
    "Barrier",
    "EagerDequeuer",
    "Mailboxes",
    "QueueLock",
    "ReadPipeline",
    "ReadWriteLock",
    "Semaphore",
    "SpinLock",
    "TreeBarrier",
    "WorkPool",
    "Compute",
    "Fence",
    "Issue",
    "PollResult",
    "QueueHandle",
    "Read",
    "Segment",
    "SharedMemory",
    "ThreadCtx",
    "Write",
]

__getattr__, __dir__ = _lazy.exports(__name__, {
    "requests": [
        "AwaitResult", "Compute", "Fence", "Issue", "PollResult", "Read",
        "Write",
    ],
    "collections": ["WorkPool"],
    "prefetch": ["EagerDequeuer", "ReadPipeline"],
    "shm": ["QueueHandle", "Segment", "SharedMemory"],
    "sync": [
        "Barrier", "Mailboxes", "QueueLock", "ReadWriteLock", "Semaphore",
        "SpinLock", "TreeBarrier",
    ],
    "thread": ["ThreadCtx"],
})
