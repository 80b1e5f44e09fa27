"""Package-wide size limits and defaults."""

# largest field order p**m that field_create accepts
MAX_FIELD_SIZE = 2**64
# exp/log tables are only built up to this order; larger extension fields
# fall back to digit arithmetic
TABLE_LIMIT = 2**16
# guardrail on the q**r - 1 degree of the one-three-point constructions
MAX_COVER_DEGREE = 2**16
# extra terms appended to the default Laurent precision
LAURENT_MARGIN = 8
