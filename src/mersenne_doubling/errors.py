class CapacityError(ValueError):
    """Input exceeds what the current configuration can decide (use a larger bound)."""
