"""Service layer: token-authorized bulk APIs.

The deployed CrypText exposes its functions "via ... several function APIs
... equipped with secured public APIs, allowing users to utilize Look Up,
Normalization and Perturbation in bulks.  Accessing such APIs requires an
authorization token" (paper §III-F).  This subpackage reproduces the service
layer in process:

* :class:`repro.api.TokenAuthenticator` — issues and validates API tokens
  with per-token scopes;
* :class:`repro.api.RateLimiter` — sliding-window request limits per token;
* :class:`repro.api.CrypTextService` — the endpoints (``lookup``,
  ``normalize``, ``perturb``, ``listen``, ``stats``), accepting and returning
  plain dictionaries exactly as a JSON HTTP layer would.
"""

from .async_service import AsyncCrypTextService
from .auth import ApiToken, TokenAuthenticator
from .ratelimit import RateLimiter
from .service import CrypTextService, ServiceResponse

__all__ = [
    "ApiToken",
    "TokenAuthenticator",
    "RateLimiter",
    "AsyncCrypTextService",
    "CrypTextService",
    "ServiceResponse",
]
