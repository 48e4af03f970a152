class CapacityError(ValueError):
    """Input beyond a fixed cap on work, memory or 64-bit range, or beyond is_prime's table (use a larger bound)."""
