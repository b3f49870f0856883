"""The one asyncio deadline helper the server and the SDK share."""

from __future__ import annotations

import asyncio
import sys
from collections.abc import Awaitable
from typing import Optional, TypeVar

T = TypeVar("T")

if sys.version_info >= (3, 11):

    async def within(seconds: Optional[float], awaitable: Awaitable[T]) -> T:
        """``asyncio.wait_for`` minus the Task it wraps ``awaitable`` in.

        A Task per exchange costs the loop extra passes on every
        request; ``asyncio.timeout`` puts the same deadline on the
        calling task and raises the same ``TimeoutError``.
        """
        async with asyncio.timeout(seconds):
            return await awaitable

else:  # asyncio.timeout is new in Python 3.11

    def within(seconds: Optional[float], awaitable: Awaitable[T]) -> Awaitable[T]:
        return asyncio.wait_for(awaitable, timeout=seconds)
