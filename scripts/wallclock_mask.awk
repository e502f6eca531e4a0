# Masks the wall-clock cells of `repro` output (Table 8's compile seconds
# and liveness share, Table 9's compile seconds) with `~`, so two runs'
# stdouts diff equal exactly when every other cell is equal:
#
#   repro ... | awk -f scripts/wallclock_mask.awk
/^== /{t = 0} /^== Table 8:/{t = 8} /^== Table 9:/{t = 9}
t == 8 && $2 ~ /^[0-9]+$/ {$4 = $5 = $6 = "~"}
t == 9 && $2 ~ /^[0-9]+$/ {$3 = $4 = "~"}
{print}
