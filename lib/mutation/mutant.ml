module Faults = Cm_cloudsim.Faults
module Policy = Cm_rbac.Policy

type t = {
  name : string;
  description : string;
  faults : Faults.set;
  from_paper : bool;
}

let paper_mutants =
  [ { name = "M1-delete-privilege-escalation";
      description =
        "volume:delete wrongly allows the member role in addition to admin";
      faults =
        Faults.of_list
          [ Faults.Policy_override
              ("volume:delete", Policy.Or (Policy.Role "admin", Policy.Role "member"))
          ];
      from_paper = true
    };
    { name = "M2-update-check-missing";
      description = "the authorization check on volume:update was forgotten";
      faults = Faults.of_list [ Faults.Skip_policy_check "volume:update" ];
      from_paper = true
    };
    { name = "M3-get-wrongly-denied";
      description =
        "volume:get wrongly restricted to the admin role: authorized \
         member/user subjects are denied";
      faults =
        Faults.of_list
          [ Faults.Policy_override ("volume:get", Policy.Role "admin") ];
      from_paper = true
    }
  ]

let extended_mutants =
  [ { name = "M4-quota-ignored";
      description = "volumes can be created beyond the project quota";
      faults = Faults.of_list [ Faults.Ignore_quota ];
      from_paper = false
    };
    { name = "M5-delete-in-use-allowed";
      description = "attached (in-use) volumes can be deleted";
      faults = Faults.of_list [ Faults.Allow_delete_in_use ];
      from_paper = false
    };
    { name = "M6-wrong-delete-status";
      description = "successful DELETE answers 200 instead of 204";
      faults =
        Faults.of_list [ Faults.Wrong_success_status ("volume:delete", 200) ];
      from_paper = false
    };
    { name = "M7-phantom-create";
      description = "POST acknowledges creation but stores nothing";
      faults = Faults.of_list [ Faults.Phantom_create ];
      from_paper = false
    };
    { name = "M8-zombie-delete";
      description = "DELETE acknowledges deletion but keeps the volume";
      faults = Faults.of_list [ Faults.Zombie_delete ];
      from_paper = false
    };
    { name = "M9-create-open-to-all";
      description = "volume:create wrongly allows every authenticated user";
      faults =
        Faults.of_list [ Faults.Policy_override ("volume:create", Policy.Any) ];
      from_paper = false
    };
    { name = "M10-list-wrongly-denied";
      description = "authorized users are denied volumes:get (listing)";
      faults = Faults.of_list [ Faults.Policy_deny "volumes:get" ];
      from_paper = false
    }
  ]

(* Mutants targeting the cross-service invariants (reqs 3.x): the
   attachment integrity contracts, image-backed volume creation,
   backing-image protection, token revocation visibility and
   server-delete release.  Only the [cross] scenario exercises the
   faulty surfaces, so these are run through the cross campaign. *)
let cross_mutants =
  [ { name = "X1-attach-missing-volume-ok";
      description =
        "attaching a volume that does not exist is acknowledged instead \
         of answering 404";
      faults = Faults.of_list [ Faults.Attach_missing_volume_ok ];
      from_paper = false
    };
    { name = "X2-attach-busy-volume-ok";
      description =
        "attaching an already in-use volume succeeds instead of \
         answering 409";
      faults = Faults.of_list [ Faults.Attach_in_use_ok ];
      from_paper = false
    };
    { name = "X3-attach-ghost-server-ok";
      description =
        "attachments to servers that do not exist are accepted";
      faults = Faults.of_list [ Faults.Attach_dead_server_ok ];
      from_paper = false
    };
    { name = "X4-detach-noop";
      description =
        "detach acknowledges success but leaves the volume attached";
      faults = Faults.of_list [ Faults.Detach_noop ];
      from_paper = false
    };
    { name = "X5-image-backing-unchecked";
      description =
        "volume creation accepts an imageRef that names no active image";
      faults = Faults.of_list [ Faults.Ignore_image_backing ];
      from_paper = false
    };
    { name = "X6-image-delete-backing-allowed";
      description =
        "an image still backing volumes can be deleted";
      faults = Faults.of_list [ Faults.Allow_delete_backing_image ];
      from_paper = false
    };
    { name = "X7-zombie-token";
      description =
        "revoked tokens keep authenticating: revocation is not visible \
         to the authorization path";
      faults = Faults.of_list [ Faults.Zombie_token ];
      from_paper = false
    };
    { name = "X8-server-delete-leaks-attachments";
      description =
        "deleting a server leaves its volumes in-use and attached to \
         the dead server";
      faults = Faults.of_list [ Faults.Server_delete_leak ];
      from_paper = false
    }
  ]

let all = paper_mutants @ extended_mutants
let all_extended = all @ cross_mutants
let find name = List.find_opt (fun m -> m.name = name) all_extended
